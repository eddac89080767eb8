"""Suite runner behavior: passing runs, failing controls, determinism."""
import ctypes
import hashlib
import inspect
import json
import re
import tracemalloc
import types
from pathlib import Path

import pytest

from seakit.report import CheckResult, SuiteReport, merge_reports
from seakit.verify import (
    STATEMENTS,
    control_omitted,
    run_all,
    run_compression_suite,
    run_context_suite,
    run_sea_suite,
    run_spectrality_suite,
    run_table_suite,
    _five_way,
    _lagrange,
    _run_statement,
    _Tally,
)
from seakit.cli import main
from seakit.config import DEFAULT
from seakit.linalg import EigenDecomposition, hermitian_part
from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import sampling as sm
from seakit import spectral as sp
from seakit import tables as tb
from seakit import verify
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
    draws = _public_methods(sm.EffectSampler)
    assert draws == _public_methods(sm.FuzzySampler)
    assert {"scalar", "integers", "frame", "effect", "projection",
            "simple", "signed", "with_values", "with_top", "commuting_with",
            "split_effect", "orthogonal_pair", "summable_pair",
            "refined_commuting", "span", "commuting"} <= draws.keys()
    # each draw takes the run's sample indices first (``span`` draws
    # nothing), and the draws with one formula are the matrix sampler's
    assert all(params[:2] == ["self", "ks"] for name, params in draws.items()
               if name != "span")
    assert sm.FuzzySampler.effect is sm.EffectSampler.effect
    def operations(cls) -> set:
        return {name for name in dir(cls)
                if not name.startswith("_") and callable(getattr(cls, name))}

    assert operations(mx.MatrixContext) == operations(fz.FuzzyContext)
    assert {"encode", "mul", "extremes", "unit", "element", "complement",
            "scale"} <= operations(mx.MatrixContext)
    # the contexts stay in their model modules, and both samplers live
    # in one module, which only the verifier and the tests load
    assert mx.MatrixContext.__module__ == "seakit.matrices"
    assert fz.FuzzyContext.__module__ == "seakit.fuzzy"
    assert sm.EffectSampler.__module__ == sm.FuzzySampler.__module__


def test_each_runner_takes_one_control_switch():
    """A suite's negative control is one switch, ``control``, on its
    runner; ``run_all`` runs each runner twice and takes no switch."""
    model_suite = ["model", "dim_or_size", "samples", "seed", "tol",
                   "control"]
    runners = {run: model_suite for run in (
        run_sea_suite, run_compression_suite, run_spectrality_suite,
        run_context_suite)}
    runners[run_table_suite] = ["seed", "tol", "control"]
    for run, names in runners.items():
        params = inspect.signature(run).parameters
        assert list(params) == names, run.__name__
        assert params["control"].default is False
        assert params["control"].annotation == "bool"
    assert list(inspect.signature(run_all).parameters) == model_suite[:-1]


def _recorded(monkeypatch, owners) -> tuple[set, set]:
    """Replace every public method of each class, and every public function
    a module defines, by a proxy that records its name when called.
    Returns (the names proxied, the set the calls are recorded in)."""
    names, called = set(), set()

    def proxy(name, fn):
        def call(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return call

    for owner in owners:
        for attr, value in list(vars(owner).items()):
            name = f"{owner.__name__}.{attr}"
            if attr.startswith("_"):
                continue
            if isinstance(value, staticmethod):
                wrapped = staticmethod(proxy(name, value.__func__))
            elif inspect.isfunction(value) and (
                    inspect.isclass(owner)
                    or value.__module__ == owner.__name__):
                wrapped = proxy(name, value)
            else:
                continue
            names.add(name)
            monkeypatch.setattr(owner, attr, wrapped)
    return names, called


def test_every_model_operation_and_engine_call_is_read(
        monkeypatch, tmp_path, capsys):
    """Every public method of the two contexts and the two samplers, and
    every public function of ``spectral``, is called by some statement of
    ``run_all`` (controls included) on either model or by some element
    verb on a matrix or a pointwise document: what nothing reads is
    deleted, and this keeps it from coming back."""
    names, called = _recorded(monkeypatch, (
        mx.MatrixContext, fz.FuzzyContext, sm.EffectSampler,
        sm.FuzzySampler, sp))
    run_all("matrix", 3, 12, 1)
    run_all("mv", 6, 12, 1)
    for doc in ({"re": [[0.6, 0.2], [0.2, 0.3]]},
                {"values": [0.25, 0.5, 1.0, 0.0]}):
        path = tmp_path / "element.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "spectrum", "approx", "decompose",
                     "witness", "mv"):
            inputs = [str(path)] * (2 if verb == "witness" else 1)
            assert main([verb, "--input", *inputs]) == 0, (verb, doc)
    capsys.readouterr()
    assert {"MatrixContext.mul", "FuzzySampler.effect",
            "seakit.spectral.kept_sum"} <= names
    assert sorted(names - called) == []


def test_sea_suite_passes_both_models():
    assert run_sea_suite("matrix", 2, samples=25, seed=3).verdict
    assert run_sea_suite("mv", 4, samples=25, seed=3).verdict


def test_symmetrized_product_breaks_the_kernel_axiom():
    report = run_sea_suite("matrix", 3, samples=40, seed=5, control=True)
    assert not report.verdict
    assert report.metadata["negative_control"]
    bad = failing_ids(report)
    assert "S3" in bad
    s3 = next(r for r in report.results if r.statement_id == "S3")
    assert s3.witness is not None
    assert "min_eigenvalue" in s3.witness


def test_truncated_sum_product_breaks_distributivity():
    report = run_sea_suite("mv", 6, samples=40, seed=5, control=True)
    assert not report.verdict
    assert "S1" in failing_ids(report)


def test_compression_suite_and_soft_focus_control():
    assert run_compression_suite("matrix", 3, samples=20, seed=2).verdict
    assert run_compression_suite("mv", 5, samples=20, seed=2).verdict
    soft = run_compression_suite("matrix", 3, samples=20, seed=2,
                                 control=True)
    assert not soft.verdict
    assert "de:compr" in failing_ids(soft)


@pytest.mark.parametrize("change", [
    {"cluster": 0.0}, {"cluster": 2.0}, {"cluster": 1e300}, {"psd": 1e-5}],
    ids=["cluster-0", "cluster-2", "cluster-1e300", "psd-1e-5"])
def test_sea_and_compression_pass_at_any_legal_tolerance(change):
    """The sea and compression suites take meets and joins from (a - b)⁺,
    which no clustering width enters, and check p ∘ a = p ∧ a against that
    meet alone, so every finite width the command line accepts, and a psd
    slack above 1e-6, leave a correct build passing."""
    tol = DEFAULT.replace(**change)
    failed = {(run.__name__, dim, seed): failing_ids(report)
              for run in (run_sea_suite, run_compression_suite)
              for dim in (2, 4) for seed in (1, 42)
              for report in [run("matrix", dim, 12, seed, tol)]}
    assert {k: v for k, v in failed.items() if v} == {}


def test_spectrality_suite_and_cover_control():
    assert run_spectrality_suite("matrix", 4, samples=12, seed=7).verdict
    assert run_spectrality_suite("mv", 6, samples=12, seed=7).verdict
    broken = run_spectrality_suite("matrix", 4, samples=12, seed=7,
                                   control=True)
    assert not broken.verdict
    assert "lemma:floor" in failing_ids(broken)


def test_context_suite_and_merge_control():
    assert run_context_suite("matrix", 4, samples=15, seed=11).verdict
    assert run_context_suite("mv", 6, samples=15, seed=11).verdict
    merged = run_context_suite("matrix", 4, samples=15, seed=11,
                               control=True)
    assert not merged.verdict
    assert "thm:contexts" in failing_ids(merged)


def test_table_suite_and_corrupted_control():
    assert run_table_suite(seed=1).verdict
    broken = run_table_suite(seed=1, control=True)
    assert not broken.verdict
    assert {"E1", "E4"} <= failing_ids(broken)


def test_five_way_agreement_on_hand_cases():
    p = mx.validate_effect(np.diag([1.0, 0.0]))
    below = mx.validate_effect(np.diag([0.3, 0.5]))
    flags = _five_way(mx.MatrixContext(), p, below)
    keys = ("compress_below", "block_sum", "interval_sum", "mackey", "meet")
    assert all(flags[k] for k in keys)
    tilted = mx.validate_effect(np.array([[0.5, 0.3], [0.3, 0.5]]))
    flags = _five_way(mx.MatrixContext(), p, tilted)
    assert not any(flags[k] for k in keys)


def _axiom_ids() -> set:
    """The ids ``tables.check_ea_axioms`` reports, read from its results."""
    alg = tb.builtin_table(tb.BUILTIN_NAMES[0])
    return {r.statement_id for r in tb.check_ea_axioms(alg).results}


def test_run_all_reports_exactly_the_statement_table():
    """Every normal suite reports exactly its rows of ``STATEMENTS``, and
    every control its marked rows alone; the tables suite adds the axiom
    checks, and its corrupted control reports those alone."""
    ids = [sid for rows in STATEMENTS.values() for sid, _, _ in rows]
    assert len(ids) == len(set(ids))
    for model, n in (("matrix", 3), ("mv", 4)):
        reports = run_all(model, n, samples=12, seed=13)
        assert merge_reports(reports)["verdict"] == "pass"
        controls = [r for r in reports if r.metadata.get("negative_control")]
        assert len(controls) == 5
        assert all(not c.verdict for c in controls)
        for rep in reports:
            control = rep.metadata.get("negative_control", False)
            rows = {sid for sid, _, marked in STATEMENTS[rep.suite]
                    if marked or not control}
            if rep.suite == "tables":
                rows = _axiom_ids() if control else rows | _axiom_ids()
            assert {r.statement_id for r in rep.results} == rows, rep.suite


SAMPLED_RUNNERS = (run_sea_suite, run_compression_suite,
                   run_spectrality_suite, run_context_suite)


def test_control_mark_is_set_on_exactly_the_rows_that_read_the_switch(
        monkeypatch):
    """A control runs only its suite's marked rows, so the mark must be set
    on exactly the rows whose body reads the suite's switch: the run's
    ``control``, ``prod`` or ``planted``, in the body or in any helper it
    hands the run to.  Every sampled row runs once, on both models, on a
    run that records those reads: a mark dropped from a row that reads one,
    or set on a row that reads none, fails here.  (Reading the switch is
    not changing the result: under the Jordan product the matrix
    ``le:sharp.i``-``iv`` give the results of the standard one.)"""
    read, reads = set(), {}

    class RecordingRun(verify._Run):
        def __getattribute__(self, name):
            if name in ("control", "prod", "planted"):
                read.add(name)
            return super().__getattribute__(name)

    def recorded(report, sid, body):
        read.clear()
        _run_statement(report, sid, body)
        reads.setdefault((report.suite, sid), set()).update(read)

    monkeypatch.setattr(verify, "_Run", RecordingRun)
    monkeypatch.setattr(verify, "_run_statement", recorded)
    for model, n in (("matrix", 3), ("mv", 4)):
        for run in SAMPLED_RUNNERS:
            assert run(model, n, 4, 1).verdict, (model, run.__name__)
    marks = {(suite, sid): marked for suite, rows in STATEMENTS.items()
             if suite != "tables" for sid, _, marked in rows}
    assert {key: bool(names) for key, names in reads.items()} == marks
    assert sum(marks.values()) == 17


@pytest.mark.parametrize("model,n", [("matrix", 3), ("mv", 8)])
def test_unmarked_rows_give_equal_results_with_the_switch_on_and_off(
        model, n, monkeypatch):
    """With every row marked, so that the control runs them all, each
    unmarked row gives an equal result with the switch on and off: its
    seed does not read the switch, and neither does its body, so leaving
    it out of the control loses nothing."""
    unmarked = {sid for rows in STATEMENTS.values()
                for sid, _, marked in rows if not marked}
    for suite, rows in list(STATEMENTS.items()):
        monkeypatch.setitem(STATEMENTS, suite,
                            [(sid, body, True) for sid, body, _ in rows])
    for run in SAMPLED_RUNNERS:
        normal, control = ({r.statement_id: r for r in run(
            model, n, 12, 1, control=switch).results if r.statement_id
            in unmarked} for switch in (False, True))
        assert normal and normal == control, run.__name__


def test_spectrality_control_keeps_no_notes_of_the_rows_it_leaves():
    """``property_a_coverage`` describes ``propertyA`` and
    ``degenerate_comparability_ties`` counts in ``de:b-compar``; the
    control runs neither, so its report carries neither note."""
    notes = {"property_a_coverage", "degenerate_comparability_ties"}
    for model in ("matrix", "mv"):
        normal = run_spectrality_suite(model, 4, 4, 1)
        control = run_spectrality_suite(model, 4, 4, 1, control=True)
        assert notes <= normal.metadata.keys()
        assert not notes & control.metadata.keys()
        assert [r.statement_id for r in control.results] == [
            "lemma:covex_floor", "lemma:floor"]


def test_readme_lists_every_statement_with_its_suite():
    """The README's statement table names every row, and the axiom
    checks, in full and with the suite that reports it, and marks the
    rows its suite's control runs: the marked rows of ``STATEMENTS`` and
    the axiom checks, which the tables control runs on corrupted
    tables."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Statement identifiers", 1)[1]
    section = section.split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (yes|) \|", section,
                        flags=re.M)
    rows = {(sid, suite): marked for suite, rows in STATEMENTS.items()
            for sid, _, marked in rows}
    rows |= {(sid, "tables"): True for sid in _axiom_ids()}
    assert {(sid, suite): mark == "yes" for sid, suite, mark in listed} \
        == rows
    assert len(listed) == len(rows)


# run -> (suite, the models whose control it cannot fail at dimension 1)
CONTROLS_AT_ONE = {
    run_sea_suite: ("sea", ("matrix",)),
    run_context_suite: ("context", ("matrix", "mv")),
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
    suite, models = CONTROLS_AT_ONE.get(run, ("", ()))
    for model in models:
        with pytest.raises(ValueError) as info:
            run(model, 1, samples=2, seed=1, control=True)
        assert str(info.value) == control_omitted(suite, model, 1)


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


# name -> (suite runner, model), run normal and as its control.
CONTROLS = {
    "matrix-sea": (run_sea_suite, "matrix"),
    "matrix-compression": (run_compression_suite, "matrix"),
    "matrix-spectrality": (run_spectrality_suite, "matrix"),
    "matrix-context": (run_context_suite, "matrix"),
    "mv-sea": (run_sea_suite, "mv"),
    "mv-compression": (run_compression_suite, "mv"),
    "mv-spectrality": (run_spectrality_suite, "mv"),
    "mv-context": (run_context_suite, "mv"),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_every_control_fails_for_every_seed(name):
    # run_all gives controls samples // 4 samples, so small runs see 1-3.
    run, model = CONTROLS[name]
    passed = [(dim, samples, seed)
              for dim in (2, 3, 4) for samples in (1, 2, 3)
              for seed in range(10)
              if run(model, dim, samples, seed, control=True).verdict]
    assert passed == []


# On both models the signed draws have exact kernels, whose sign
# witnesses the reversed route gets wrong, so ``prop:decomp`` fails too.
ROUTE_FAILURES = {"coro:limit", "de:b-compar", "eq:spectprojs",
                  "eq:spectresV", "lemma:covex_floor", "prop:decomp",
                  "thm:contexts", "thm:contexts.functions",
                  "thm:contexts.reduced"}


@pytest.mark.parametrize("model,model_context,failures", [
    ("matrix", mx.MatrixContext, ROUTE_FAILURES),
    ("mv", fz.FuzzyContext, ROUTE_FAILURES),
], ids=["matrix", "mv"])
def test_verifier_catches_a_wrong_eigenprojection_route(
        monkeypatch, model, model_context, failures):
    original = model_context.eigenprojections

    def reversed_projections(self, v):
        values, projs, own = original(self, v)
        return values, projs[::-1], own

    monkeypatch.setattr(model_context, "eigenprojections",
                        reversed_projections)
    spectral = run_spectrality_suite(model, 4, 12, 7)
    context = run_context_suite(model, 4, 12, 7)
    assert failing_ids(spectral) | failing_ids(context) == failures


def test_every_row_reports_its_samples_at_a_tiny_check():
    """At a check of 3e-16, below the rounding of many matrix identities,
    rows fail sample by sample and none crashes: the engine returns what
    it builds, and each law is checked by its own statement, so no engine
    call raises on an answer of its own.  ``prop:decomp`` at dim 4, seed
    2 reports its 12 samples and the first that fails."""
    tol = DEFAULT.replace(check=3e-16)
    results = {}
    for n in (2, 3, 4):
        for seed in (1, 2, 3):
            for run in (run_spectrality_suite, run_context_suite):
                for control in (False, True):
                    for r in run("matrix", n, 12, seed, tol,
                                 control=control).results:
                        results[n, seed, control, r.statement_id] = r
    assert [key for key, r in results.items()
            if r.witness is not None and "error" in r.witness] == []
    decomp = results[4, 2, False, "prop:decomp"]
    assert decomp.samples == 12 and decomp.passed < 12
    assert "sample" in decomp.witness


def _inside(fn, **names):
    """A copy of the engine function ``fn`` that reads the given names of
    ``seakit.spectral`` as the values given: a fault injected inside the
    engine, before anything the function does with its result."""
    return types.FunctionType(fn.__code__, {**fn.__globals__, **names},
                              fn.__name__, fn.__defaults__, fn.__closure__)


def _unkept_sum(ctx, keep, projs):
    """``kept_sum`` of the clusters it was not asked to keep: the
    complement of each member's sum."""
    return sp.kept_sum(ctx, ~np.asarray(keep), projs)


def _turned_witnesses(v, ctx):
    """The sign witnesses, each turned by one fixed rotation of the first
    two axes: projections of the same ranks that, in a Haar frame, do not
    commute with v."""
    turn = np.eye(np.shape(v)[-1])
    turn[:2, :2] = [[np.cos(0.5), -np.sin(0.5)], [np.sin(0.5), np.cos(0.5)]]
    return [hermitian_part(turn @ q @ turn.T)
            for q in sp.sign_witness_projections(v, ctx)]


# Engine faults that keep the shape of every answer: name -> (models, the
# engine function, the name it reads, the fault read in its place).
ENGINE_MUTANTS = {
    "complemented-comparability-witness": (
        ("matrix", "mv"), "comparability_witness", "kept_sum", _unkept_sum),
    "sign-witness-off-the-commutant": (
        ("matrix",), "orthogonal_decomposition", "sign_witness_projections",
        _turned_witnesses),
}


@pytest.mark.parametrize("name,model", [
    (name, model) for name, (models, *_) in ENGINE_MUTANTS.items()
    for model in models])
def test_engine_mutants_fail_a_sample(name, model, monkeypatch):
    """Each engine mutant makes some normal statement fail on a sample,
    for seeds 1-3 at matrix dim 3 and mv size 6: the statement checking
    the law, not the engine, catches the fault, and its witness is a
    sample.  A crash witness is not a kill."""
    _, fn, read, fault = ENGINE_MUTANTS[name]
    monkeypatch.setattr(sp, fn, _inside(getattr(sp, fn), **{read: fault}))
    n = {"matrix": 3, "mv": 6}[model]
    for seed in (1, 2, 3):
        failed = [r for run in (run_sea_suite, run_compression_suite,
                                run_spectrality_suite, run_context_suite)
                  for r in run(model, n, 12, seed).results
                  if r.passed < r.samples]
        kills = [r.statement_id for r in failed if "error" not in r.witness]
        assert kills, (seed, [r.witness for r in failed])


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_every_normal_suite_passes_for_every_seed(name):
    run, model = CONTROLS[name]
    failed = [(dim, samples, seed)
              for dim in (2, 3, 4) for samples in (1, 2, 3)
              for seed in range(10)
              if not run(model, dim, samples, seed).verdict]
    assert failed == []


def looped_lagrange(ctx, a, nodes, i):
    """The i-th Lagrange basis polynomial on ``nodes`` at one element a, as
    its own product of the k - 1 factors (a - x_j) / (x_i - x_j): the route
    ``thm:contexts.functions`` took per sample and per node before the
    stacked ``verify._lagrange``, kept as its reference."""
    out = ctx.one_like(a)
    shifts = ctx.shift(a, np.array(nodes))
    for j, x in enumerate(nodes):
        if j != i:
            out = ctx.mul(out, shifts[j] / (nodes[i] - x))
    return out


def stacked_lagrange(ctx, a, node_lists):
    """``verify._lagrange`` on a stack whose member k has the nodes
    ``node_lists[k]``, padded past them with its last node, as the engine
    pads its clusters: the ``(M, S, ...)`` basis."""
    m = max(map(len, node_lists))
    valid = np.arange(m)[:, None] < [len(x) for x in node_lists]
    nodes = np.array([x + x[-1:] * (m - len(x)) for x in node_lists]).T
    return _lagrange(ctx, a, nodes, valid)


def test_lagrange_basis_is_exact_at_the_nodes():
    """On the mv model a's values are the nodes, where the prefix and
    suffix products give exactly 0 and 1: the indicators of the level
    sets, for every member of a ragged stack."""
    rng = np.random.default_rng(4)
    ctx = fz.FuzzyContext(DEFAULT)
    for size in (1, 2, 5, 17, 64):
        a = rng.integers(0, 257, (20, size)) / 256
        node_lists = [sorted(set(x.tolist())) for x in a]
        basis = stacked_lagrange(ctx, a, node_lists)
        for k, nodes in enumerate(node_lists):
            for i, x in enumerate(nodes):
                assert np.array_equal(basis[i, k], (a[k] == x).astype(float))
    ctx = mx.MatrixContext(DEFAULT)
    a = sm.EffectSampler(5, 3).with_values(range(1), [0.25, 0.5, 0.5])[0]
    basis = stacked_lagrange(ctx, a, [[0.25, 0.5]])
    for i, x in enumerate((0.25, 0.5)):
        expected = ctx.rickart(ctx.shift(a, x))
        assert np.allclose(basis[i, 0], expected, atol=1e-12)


@pytest.mark.parametrize("model_context,sampler", [
    (mx.MatrixContext, sm.EffectSampler),
    (fz.FuzzyContext, sm.FuzzySampler),
], ids=["matrix", "mv"])
def test_stacked_lagrange_equals_the_looped_products(model_context, sampler):
    """The stacked basis against the looped reference on ragged stacks: a
    member with one node, one with the most, random ones, and the nodes
    that the control's ``MERGE_DELTA`` (0.25) keeps, taken from the reduced representation
    by the per-sample loop's filter.  On mv the two agree bit for bit, as
    exact indicators, wherever a member's value is one of its nodes: at
    all its points unless nodes were merged away.  At a value that is not
    a node, and on matrices everywhere, the two products associate
    differently and agree within 1e-12."""
    ctx, smp = model_context(DEFAULT), sampler(3, 6)
    values = np.array([[128] * 6, [0, 32, 64, 96, 128, 160],
                       [0, 25, 77, 154, 230, 243], [3, 3, 90, 90, 200, 255],
                       *np.random.default_rng(8).integers(0, 257, (4, 6))
                       ]) / 256
    a = smp.with_values(range(len(values)), values)
    rep = sp.reduced_representation(a, ctx)
    exact = model_context is fz.FuzzyContext
    for delta in (0.0, verify.MERGE_DELTA):
        node_lists = []
        for k in range(len(values)):
            nodes = rep.coefficients[rep.own[:, k], k].tolist()
            node_lists.append([mu for j, mu in enumerate(nodes) if j == 0
                               or delta == 0.0 or mu - nodes[j - 1] > delta])
        # one node, the most, and (merged) 3 of 6 values
        counts = [len(x) for x in node_lists]
        assert min(counts) == 1 and max(counts) == (3 if delta else 6)
        assert counts[2] == (3 if delta else 6)
        basis = stacked_lagrange(ctx, a, node_lists)
        for k, nodes in enumerate(node_lists):
            member = ctx.raw(a)[k]
            at_node = np.isin(values[k], nodes)
            for i in range(len(nodes)):
                ref, got = looped_lagrange(ctx, member, nodes, i), basis[i, k]
                assert np.max(np.abs(got - ref)) <= 1e-12, (delta, k, i)
                if exact:
                    assert np.array_equal(got[at_node], ref[at_node])
                    assert np.array_equal(got[at_node],
                                          1.0 * (member == nodes[i])[at_node])


def report_sha256(doc):
    """The sha256 of a report as ``verify --out`` writes it."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


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
    """Print ``MATRIX_GOLDEN`` as recorded by this build, ready to paste
    over the dict after a deliberate change of the reports:
    ``PYTHONPATH=src:tests python -c "import test_verify;
    test_verify.print_goldens()"``."""
    print("MATRIX_GOLDEN = {")
    for key in sorted(MATRIX_GOLDEN):
        print(f'    {key!r}: "{matrix_report_sha256(*key)}",')
    print("}")


def test_no_statement_writes_into_an_mv_element(monkeypatch):
    """mv elements are plain, writable arrays.  With every sampler draw
    made read-only, a statement that wrote into an element would crash
    and report a crash witness, so the reports would change."""
    seeds = (1, 7, 42)
    free = [report_digest("mv", 8, seed) for seed in seeds]

    def frozen(draw):
        def draw_read_only(*args, **kwargs):
            out = draw(*args, **kwargs)
            for x in out if isinstance(out, tuple) else (out,):
                if isinstance(x, np.ndarray):
                    x.flags.writeable = False
            return out
        return draw_read_only

    for name in _public_methods(sm.FuzzySampler):
        monkeypatch.setattr(sm.FuzzySampler, name,
                            frozen(getattr(sm.FuzzySampler, name)))
    assert not sm.FuzzySampler(1, 3).effect(range(2)).flags.writeable
    assert [report_digest("mv", 8, seed) for seed in seeds] == free


def report_digest(model, n, seed):
    """The sha256 of the merged ``run_all`` report at 12 samples,
    unrounded."""
    return report_sha256(merge_reports(run_all(model, n, 12, seed)))


def report_digests():
    """Print the digest of each report on the ``REPORT_DIGESTS`` grid:
    matrix dims 2-4 and mv sizes 4, 8 and 32 at seeds 1, 7 and 42.  A
    change that must keep the reports byte-identical prints the same 18
    lines before and after: ``PYTHONPATH=src:tests python -c "import
    test_verify; test_verify.report_digests()"``."""
    for key in REPORT_DIGESTS:
        print(*key, report_digest(*key))


def witness_report_digest(model, n, seed, check):
    """The sha256 of the merged spectrality and context reports, normal
    and control, at 12 samples, with ``Tolerances.check`` forced to
    ``check``: a small check fails rows that pass at the default, and a
    huge one passes comparisons that must fail, so their witnesses are
    recorded."""
    tol = DEFAULT.replace(check=check)
    return report_sha256(merge_reports([
        run_spectrality_suite(model, n, 12, seed, tol),
        run_spectrality_suite(model, n, 12, seed, tol, control=True),
        run_context_suite(model, n, 12, seed, tol),
        run_context_suite(model, n, 12, seed, tol, control=True)]))


def witness_digests():
    """Print the digest of each report on the ``WITNESS_DIGESTS`` grid:
    matrix dim 4 and mv size 5 at seeds 1 and 2, with the check forced to
    1e-14 and to 1e9.  A change that must keep the witnesses
    byte-identical prints the same 8 lines before and after:
    ``PYTHONPATH=src:tests python -c "import test_verify;
    test_verify.witness_digests()"``."""
    for key in WITNESS_DIGESTS:
        print(*key, witness_report_digest(*key))


def blas_build():
    """numpy's version, its BLAS library's name and version, and the CPU
    kernel set OpenBLAS chose at run time, which can move last bits too
    (None where it cannot be read)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    for lib in sorted(Path(np.__file__).parent.parent.glob(
            "numpy.libs/libscipy_openblas64_*.so")):
        get = getattr(ctypes.CDLL(str(lib)),
                      "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.argtypes = []
            get.restype = ctypes.c_char_p
            core = get().decode()
    return np.__version__, f"{blas.get('name')} {blas.get('version')}", core


# The report digests, unrounded; the matrix ones on the build they were
# recorded on.  All were last re-recorded, with ``WITNESS_DIGESTS`` and
# ``MATRIX_GOLDEN``, when a control came to run only the rows that read
# its switch: the control reports lost their other rows, and the
# spectrality control its two notes on rows it no longer runs.  The matrix
# ones were re-recorded again, with the matrix witness digests, when
# ``prop:decomp`` came to check v = v⁺ - v⁻ itself: only the
# ``max_residual`` of its matrix rows moved (mv residuals are exact 0).
REPORT_DIGESTS_BUILD = ("2.4.6", "scipy-openblas 0.3.31.188.0", "SkylakeX")
REPORT_DIGESTS = {
    ("matrix", 2, 1): "91a6d36f50c776d4e55f5e3ee26164c67d9640d64374227e5de76cdb2d4d79d1",
    ("matrix", 2, 7): "b2efa65852b217f586573caa00de1bc63bcff9fea2c3bfbc91d23c916735aca8",
    ("matrix", 2, 42): "d6df060d2748a778eaa8d1a65676a5ad372ede68de738c0d11422da75a007a10",
    ("matrix", 3, 1): "c5ae6f45dd72b574683059d1e069a7acb7d714292b23c2af44712916442ba681",
    ("matrix", 3, 7): "971924175c896e796dffeddfc4d5a566011fca7ed54831cbed7e36fd0a09e14a",
    ("matrix", 3, 42): "1920b4b260041ee523dcd8b59a781d9989d4933192c5efec3e12a445375b633d",
    ("matrix", 4, 1): "0ac68d7a797a401a45ca99db3e720b8e4b2c6720ebd8e3b7c1642c70a2d60765",
    ("matrix", 4, 7): "caaba575b3892049f0dc9151738b63b44c16090ca307deed190fa2f105f44826",
    ("matrix", 4, 42): "ef94e7dfcbc919107571e47c2f3d2a8f4e44729c202473058501a77bbebae039",
    ("mv", 4, 1): "b7e9fb8c79cf4ca4c7fe9bafd6961ffb3786f7f6bf7bc9641207beceb447ea64",
    ("mv", 4, 7): "816ca0a372a10c63901b91716743ede388db2e4c7dfc555968be841065cf0657",
    ("mv", 4, 42): "94296bb62a946b655b5548503e4528ff9fd04d0ce254371524f192d5116a5023",
    ("mv", 8, 1): "3660b08810e6392ab086899ddf52045e5e52bd6b8a105de9428b564a717c19dc",
    ("mv", 8, 7): "26c221c0b0054e72c93aa9a7666c29292b2394484dcf31b1fbe9d449ed567f00",
    ("mv", 8, 42): "67378c3d8a0ad1c5161fc7c3f195f8b69fad1dca909a604c88b9d3e4067d993a",
    ("mv", 32, 1): "6cab58236038b30212803efaaf729650885e063aa6eb6b73d61e92f62f7e6769",
    ("mv", 32, 7): "cab0d2d05bd896008484a0aa71c699dc65748383def86130e5ea988e428feffa",
    ("mv", 32, 42): "d482634e17bde71dfa520eeda54431244c1c681bea2f72efff9ab76e3a505be8",
}


BUILD = blas_build()


@pytest.mark.parametrize("model,n,seed", sorted(REPORT_DIGESTS))
def test_reports_are_byte_identical(model, n, seed):
    """Every report bit, matrix residuals included, as ``verify --out``
    writes it.  The mv model is exact dyadic arithmetic on a Philox
    stream, so its digests hold on any host; the matrix ones on the build
    they were recorded on (numpy, BLAS, CPU kernels), as LAPACK may round
    their last bits differently elsewhere.  Unlike ``MATRIX_GOLDEN``,
    which rounds to 6 places, this catches a last-bit change.  Regenerate
    the dict with ``report_digests`` above, after a deliberate change of
    the reports only."""
    if model == "matrix" and BUILD != REPORT_DIGESTS_BUILD:
        pytest.skip(f"matrix report digests were recorded on "
                    f"{REPORT_DIGESTS_BUILD}; this is {BUILD}")
    assert report_digest(model, n, seed) == REPORT_DIGESTS[model, n, seed]


# The witness digests, unrounded, on the build of REPORT_DIGESTS_BUILD;
# the matrix ones re-recorded with the matrix report digests.
WITNESS_DIGESTS = {
    ("matrix", 4, 1, 1e-14): "52dd954348e317b912c21a5401cb78164b6f87cf53b9162fda10c172d29dce20",
    ("matrix", 4, 2, 1e-14): "47042da3871072e8a6643dce83bbc4d289b8738c047b884dac8f085bfecb0b3b",
    ("matrix", 4, 1, 1e9): "ee3c7ce8fa93d425cea91d2c3de47378eec9044ffb0801e7dae1257bd885df45",
    ("matrix", 4, 2, 1e9): "d0dd3f65e8d6488ff1422999e5467d3a9e067149a6d05435bb4574fff10189a0",
    ("mv", 5, 1, 1e-14): "a4bbabe7b0f0f24bde44c0ac65aee9fb9959b3bc2dfac5ea696767d18ade521d",
    ("mv", 5, 2, 1e-14): "b2edb0102d80ba5de589fd312642a35b295eec593d8009987125fb8977b8717a",
    ("mv", 5, 1, 1e9): "bf8da84f14093ce0c9aa913e9aaa5a59a0e295af02ae78a9c55913ccf695b6cc",
    ("mv", 5, 2, 1e9): "9c43fd479e5dc849db227d4448871e937b051373181ae77c33784e60dbafff8b",
}


@pytest.mark.parametrize("model,n,seed,check", sorted(WITNESS_DIGESTS))
def test_witnesses_are_byte_identical(model, n, seed, check):
    """The witness of every row that fails at a forced check threshold,
    key, key order and sample index included.  The mv digests hold on
    any host; the matrix ones on the build the report digests were
    recorded on.  Regenerate the dict
    with ``witness_digests`` above, after a deliberate change of the
    witnesses only."""
    if model == "matrix" and BUILD != REPORT_DIGESTS_BUILD:
        pytest.skip(f"matrix witness digests were recorded on "
                    f"{REPORT_DIGESTS_BUILD}; this is {BUILD}")
    assert witness_report_digest(model, n, seed, check) == \
        WITNESS_DIGESTS[model, n, seed, check]


@pytest.mark.parametrize("model,n", [("matrix", 4), ("mv", 5)])
def test_chunked_rows_match_the_whole_stack(model, n, monkeypatch):
    """Every suite, and the sea suite's control with its planted S1
    witness, gives the reports and witnesses of one run over all 12
    samples when the runner's runs hold 1, 5 and 7 samples: the draws,
    the sample indices of the witnesses, the maxima carried across runs
    and the masks split over them.  At a check of 3e-16 the matrix
    ``lemma:covex_floor`` first fails past sample 0, so its witness's
    index is global, and rows such as ``prop:decomp`` fail some samples
    and pass others."""
    checks = (DEFAULT.check, 3e-16, 1e-14, 1e9)

    def sea_digest(seed, tol):
        return report_sha256(merge_reports([
            run_sea_suite(model, n, 12, seed, tol, control)
            for control in (False, True)]))

    def digests():
        return [(witness_report_digest(model, n, seed, check),
                 report_sha256(run_compression_suite(
                     model, n, 12, seed, DEFAULT.replace(check=check)
                 ).to_dict()),
                 sea_digest(seed, DEFAULT.replace(check=check)))
                for seed in (1, 2) for check in checks]

    whole = digests()
    per_sample = n ** ({"matrix": 2, "mv": 1}[model] + 1)
    for size in (1, 5, 7):
        monkeypatch.setattr(verify, "CHUNK_NUMBERS", size * per_sample)
        assert digests() == whole, size


@pytest.mark.parametrize("run", [run_sea_suite, run_compression_suite,
                                 run_spectrality_suite, run_context_suite],
                         ids=["sea", "compression", "spectrality", "context"])
def test_memory_does_not_grow_with_the_samples(run, monkeypatch):
    """With runs of four samples (matrix dim 8), a suite's peak of traced
    memory at 200 samples stays within 1.5 times its peak at 8: each
    statement holds one run's draws and stacks at a time, and the report
    keeps counts, not samples.  A row that drew or stacked all its samples
    at once would grow with them, about 25 times over."""
    monkeypatch.setattr(verify, "CHUNK_NUMBERS", 4 * 8 ** 3)
    run("matrix", 8, 8, 42)  # caches and lazy imports, not counted below
    peaks = []
    for samples in (8, 200):
        tracemalloc.start()
        try:
            run("matrix", 8, samples, 42)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("size,seed", sorted(
    (n, seed) for model, n, seed in REPORT_DIGESTS if model == "mv"))
def test_mv_reports_are_golden(size, seed, tmp_path, capsys):
    """The file ``verify --out`` writes for the mv model, bytes as on
    disk, hashes to the report digest: the command line runs the suites
    ``report_digest`` runs, at its default tolerances, and writes nothing
    else into the report."""
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--model", "mv", "--size",
                 str(size), "--samples", "12", "--seed", str(seed),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        REPORT_DIGESTS["mv", size, seed]


MATRIX_GOLDEN = {
    (2, 1): "3fcca0c084cea1113500fff9868ae19fc0235c209466af678d926665a6dd887a",
    (2, 7): "6ddb407f508c767b09a2178963ff63d1b4a3edc1756e1c4bfe310221fcf046f0",
    (2, 42): "0abfa50f364010ea49159d9829cf78577f618fd9945a60413dc693f19cb8bb19",
    (3, 1): "1973a030546768dbd8d6f977d3da9819fce9e7bb658970be47cdd2bd7a9bdeb9",
    (3, 7): "b028a9f1cc03ef3648a8584bf8612b595325d44a2c119cbbc21f621d5cd0d072",
    (3, 42): "9baa81eb2ba31e84fa74f828d7a2295b6a1427e975de9ef9261957f9e15c5a90",
    (4, 1): "ecb8184f708379562c49f4e830de4d8e273ecc892325f455aa7e3d1f201df531",
    (4, 7): "e00f0d67d03015a95035f8f0e1f880379050500ecf9503330dbb3c14aef14d08",
    (4, 42): "239924c5d832605c3193cbe2f42049cdc61fc5bc1c4a0d951665bf86338a4e46",
}


@pytest.mark.parametrize("dim,seed", sorted(MATRIX_GOLDEN))
def test_matrix_reports_are_golden(dim, seed):
    """Matrix residuals move in their last digits between LAPACK builds,
    so the merged report is hashed with every float rounded to 6 decimal
    places.  Regenerate the dict with ``print_goldens`` above.

    Last re-recorded with ``REPORT_DIGESTS``, when the control reports
    came to list only the rows that read their switch.
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
    """``Effect`` copies its matrix, or its stack of matrices, without
    checking or symmetrizing it, which keeps every result bit only if each
    caller passes exactly Hermitian matrices; ``validate_effect`` passes
    the symmetrized one.  The count is of matrices, members of a stack
    included."""
    checked = []
    failures = []
    original = mx.Effect.__init__

    def recording(self, matrix, **kwargs):
        m = np.asarray(matrix, dtype=np.complex128)
        checked.append(int(np.prod(m.shape[:-2])))
        if not np.array_equal(m, m.conj().swapaxes(-1, -2)):
            failures.append(m)
        original(self, matrix, **kwargs)

    monkeypatch.setattr(mx.Effect, "__init__", recording)
    for dim in (1, 2, 3, 4):
        for seed in (0, 1, 2):
            run_all("matrix", dim, 6, seed)
    assert sum(checked) > 1000
    assert failures == []


# The QR factorization (LAPACK zgeqrf) that every QR route calls:
# ``numpy.linalg.qr`` and the samplers' ``_haar``, which calls numpy's
# gufuncs without the public wrapper.
QR = "numpy.linalg._umath_linalg.qr_r_raw"


def _matrices_in(witness) -> int:
    return sum(isinstance(v, dict) and "re" in v for v in witness.values())


def test_work_per_request_is_pinned(call_counter, monkeypatch):
    """Counts of one matrix ``verify`` request, which do not depend on the
    machine: the eigensystems it needs (1,101 matrices decomposed, each
    element's clusters read once) in about an eighteenth as many LAPACK
    calls, as each sample's commuting family is decomposed as one stack,
    every statement checks all its samples at once and a stack's meets
    and joins take one call on the differences; the Haar frames in one QR
    factorization per frame a statement run draws (103), each for all its
    samples, as the draws return stacks, counted at ``qr_r_raw``, which
    ``_haar`` calls directly and ``numpy.linalg.qr`` calls too; the controls run only the 17 rows that
    read their switch; known eigensystems wrapped
    once per stack; no check of a matrix the verifier built; clustered
    decompositions only where eigenvectors are used, and few eigensystems
    built, as no statement indexes its stacks member by member or slices
    them into runs; every tally on an array, about one per statement, or
    per clause group and table; and witness matrices encoded only for the
    witnesses a report records."""
    calls = call_counter("numpy.linalg.eigh", QR,
                         "seakit.linalg.decomposition_from",
                         "seakit.linalg.require_hermitian")
    decomposed = 0
    eigh = np.linalg.eigh

    def counted_matrices(a, *args, **kwargs):
        nonlocal decomposed
        decomposed += int(np.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_matrices)
    encoded = built = tallies = 0
    encode = mx.MatrixContext.encode
    init = EigenDecomposition.__init__
    tally = _Tally.tally

    def counted(self, v):
        nonlocal encoded
        encoded += 1
        return encode(self, v)

    def counted_builds(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    def counted_tallies(self, *args, **kwargs):
        nonlocal tallies
        tallies += 1
        tally(self, *args, **kwargs)

    monkeypatch.setattr(mx.MatrixContext, "encode", counted)
    monkeypatch.setattr(EigenDecomposition, "__init__", counted_builds)
    monkeypatch.setattr(_Tally, "tally", counted_tallies)
    reports = run_all("matrix", 4, 12, 42)
    assert calls["numpy.linalg.eigh"] == 61
    assert decomposed == 1101
    assert calls[QR] == 103
    assert calls["seakit.linalg.require_hermitian"] == 0
    assert calls["seakit.linalg.decomposition_from"] <= 60
    assert built == 293
    assert tallies == 72
    recorded = sum(_matrices_in(r.witness) for rep in reports
                   for r in rep.results if r.witness is not None)
    assert recorded > 0
    assert encoded == recorded


def test_each_element_is_read_once(monkeypatch, tmp_path, capsys):
    """One read of an element's clusters gives everything reported about
    it: every statement reads ``eigenprojections`` at most once per run of
    samples, and each element verb once per input."""
    reads = 0
    for context in (mx.MatrixContext, fz.FuzzyContext):
        def counted(self, v, _original=context.eigenprojections):
            nonlocal reads
            reads += 1
            return _original(self, v)

        monkeypatch.setattr(context, "eigenprojections", counted)
    per_statement = {}

    def counted_statement(report, sid, body):
        start = reads
        _run_statement(report, sid, body)
        key = (report.suite, sid, "negative_control" in report.metadata)
        per_statement[key] = max(per_statement.get(key, 0), reads - start)

    monkeypatch.setattr(verify, "_run_statement", counted_statement)
    for model, n in (("matrix", 4), ("mv", 8)):
        for seed in (1, 42):
            run_all(model, n, 12, seed)
    assert per_statement
    assert {k: v for k, v in per_statement.items() if v > 1} == {}
    inputs = {
        "matrix": {"re": [[0.4, 0.1, 0.0], [0.1, 0.4, 0.0],
                          [0.0, 0.0, 0.9]]},
        "fuzzy": {"values": [0.25, 0.5, 0.5, 1.0]},
        "signed matrix": {"re": [[0.3, 0.0], [0.0, -0.4]]},
        "signed fuzzy": {"values": [0.3, -0.4, 0.0]},
    }
    verbs = {"spectrum": ("matrix", "fuzzy"), "mv": ("matrix", "fuzzy"),
             "approx": ("matrix", "fuzzy"),
             "decompose": ("signed matrix", "signed fuzzy")}
    for verb, names in verbs.items():
        for name in names:
            path = tmp_path / "in.json"
            path.write_text(json.dumps(inputs[name]))
            start = reads
            assert main([verb, "--input", str(path), "--out",
                         str(tmp_path / "out.json")]) == 0
            if verb == "mv" and name == "matrix":
                # the spectrum representation reads the decomposition
                # itself, not ``eigenprojections``
                assert reads - start <= 1, (verb, name)
            else:
                assert reads - start == 1, (verb, name)
    capsys.readouterr()


def lapack_calls(call_counter, runs) -> list[int]:
    """The ``eigh`` and QR calls of each suite run in ``runs``."""
    calls = call_counter("numpy.linalg.eigh", QR)
    counts = []
    for run in runs:
        start = calls.count
        run()
        counts.append(calls.count - start)
    return counts


def test_sea_lapack_calls_do_not_grow_with_the_samples(call_counter):
    """The stacked sea rows decompose (eigh) and factor (qr) all their
    samples at once: one call per statement and frame size, and one per
    stack of differences a meet or join takes its positive part of, and
    at dim 4 every size shows up within 12 samples.  So the sea suite makes as many LAPACK calls at 48 samples
    as at 12; a row that fell back to a per-sample loop would not."""
    counts = lapack_calls(call_counter, [
        lambda samples=samples: run_sea_suite("matrix", 4, samples, 42)
        for samples in (12, 48)])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("run,control", [
    (run_spectrality_suite, False),
    (run_spectrality_suite, True),
    (run_context_suite, False),
    (run_context_suite, True),
], ids=["spectrality", "spectrality-control", "context", "context-control"])
def test_cluster_suite_lapack_calls_do_not_grow_with_the_samples(
        call_counter, run, control):
    """The spectrality and context rows, normal and control, check all
    their samples at once: one ``eigh`` per decomposed stack (the
    clusters and their projections take none) and one ``qr`` per frame
    size of each block of draws.  At dim 4 every cluster and frame size
    shows up within 12 samples (seed 42), so 12 and 48 samples make as
    many LAPACK calls; a row that decomposed or factored per sample would
    make more.
    ``thm:contexts.functions`` decomposes nothing past the clusters: its
    Lagrange products are running products over node positions, all
    samples at once."""
    counts = lapack_calls(call_counter, [
        lambda samples=samples: run("matrix", 4, samples, 42,
                                    control=control)
        for samples in (12, 48)])
    assert counts[0] == counts[1] > 0


def context_work(monkeypatch, runs) -> dict:
    """Each run's work per statement: (run index, statement id) -> (calls
    of ``FuzzyContext`` verbs, array elements those calls return).  Every
    public method is counted, nested calls too, and the elements are the
    ``.size`` of every array a call returns, so the count sees an O(k²·n)
    product, which a count of calls does not."""
    work = [0, 0]

    def counted(fn):
        def verb(*args, **kwargs):
            out = fn(*args, **kwargs)
            work[0] += 1
            work[1] += sum(x.size for x in (
                out if isinstance(out, tuple) else (out,))
                if isinstance(x, np.ndarray))
            return out
        return verb

    for name, attr in list(vars(fz.FuzzyContext).items()):
        if isinstance(attr, staticmethod):
            monkeypatch.setattr(fz.FuzzyContext, name,
                                staticmethod(counted(attr.__func__)))
        elif inspect.isfunction(attr) and not name.startswith("_"):
            monkeypatch.setattr(fz.FuzzyContext, name, counted(attr))
    per_statement, index = {}, 0

    def counted_statement(report, sid, body):
        start = tuple(work)
        _run_statement(report, sid, body)
        per_statement[index, sid] = (work[0] - start[0], work[1] - start[1])

    monkeypatch.setattr(verify, "_run_statement", counted_statement)
    for index, run in enumerate(runs):
        run()
    return per_statement


LADDER_ROWS = ("thm:contexts.functions", "thm:contexts.reduced")


def test_context_work_grows_as_levels_times_size(monkeypatch):
    """The work ladder of the mv context rows at sizes 16, 32, 64 and 128
    (12 samples, seed 42), counted in array elements the context verbs
    return.  An element of size n has k <= min(n, 257) levels, which grow
    with n at these sizes, and each row's work is O(k·n) per sample: the
    Lagrange basis from running products of the shifts, and pairwise
    orthogonality from one Gram product, whose k² entries per sample are
    not n-point arrays.  So doubling the size multiplies the work by less
    than 4; k² n-point products, the per-node route, would multiply it by
    about 8.  A change that cuts the work on purpose tightens this bound;
    a regression must not loosen it.  (Measured: at most 3.93; with the
    per-node products, 6.86.)"""
    sizes = (16, 32, 64, 128)
    work = context_work(monkeypatch, [
        lambda n=n: run_context_suite("mv", n, 12, 42) for n in sizes])
    for sid in LADDER_ROWS:
        elements = [work[i, sid][1] for i in range(len(sizes))]
        ratios = [b / a for a, b in zip(elements, elements[1:])]
        assert max(ratios) <= 4.0, (sid, ratios)


def test_context_verb_calls_do_not_grow_with_the_samples(monkeypatch):
    """The mv context rows, and ``thm:contexts.functions`` in the control,
    which leaves out ``thm:contexts.reduced`` as it reads no switch, make
    as many context-verb calls at 48 samples as at 12 (size 16), past the
    two running products ``_lagrange`` takes per node position after the
    first: their loops run over node positions, not samples.  The
    positions are the most nodes a member keeps: 16 in both normal stacks,
    where every member has at most 16 levels and some have 16, and in the
    control's, after its merging, as many as the draws leave."""
    positions = []
    lagrange = verify._lagrange

    def recorded(ctx, a, nodes, valid):
        positions.append(len(nodes))
        return lagrange(ctx, a, nodes, valid)

    monkeypatch.setattr(verify, "_lagrange", recorded)
    work = context_work(monkeypatch, [
        lambda samples=samples, control=control: run_context_suite(
            "mv", 16, samples, 42, control=control)
        for control in (False, True) for samples in (12, 48)])
    assert positions[:2] == [16, 16]
    products = {(i, "thm:contexts.functions"): 2 * (m - 1)
                for i, m in enumerate(positions)}
    assert (2, "thm:contexts.reduced") not in work
    # (the first of the pair of runs at 12 and 48 samples, the row)
    for first, sid in ((0, LADDER_ROWS[0]), (0, LADDER_ROWS[1]),
                       (2, LADDER_ROWS[0])):
        calls = [work[i, sid][0] - products.get((i, sid), 0)
                 for i in (first, first + 1)]
        assert calls[0] == calls[1] > 0, (first, sid)
