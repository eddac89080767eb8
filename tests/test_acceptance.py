"""Acceptance gate: eleven criteria, one pass/fail line each.

Each test prints its verdict before asserting so a full run always shows
the complete scoreboard.  Tolerances are fixed here, not imported, so a
change in package defaults cannot silently weaken the gate.
"""
import json
import time

import numpy as np
import pytest

from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import sampling as sm
from seakit.cli import main
from seakit.config import DEFAULT
from seakit.linalg import frobenius, hermitian_part, operator_norm
from seakit.spectral import (
    reconstruct,
    reduced_representation,
    sign_witness_projections,
    simple_approximation,
    spectral_family,
)
from seakit.tables import builtin_table, fuzzy_embedding, incompatible_pairs
from seakit.verify import _five_way, run_sea_suite

CHECK = 1e-8
DIMS = range(2, 9)
MV = fz.FuzzyContext()
MATRIX = mx.MatrixContext(DEFAULT)


def report(num, ok, label):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_01_sea_axioms():
    started = time.monotonic()
    worst = 0.0
    ok = True
    for dim in DIMS:
        rep = run_sea_suite("matrix", dim, samples=200, seed=42)
        ok = ok and rep.verdict
        for r in rep.results:
            if r.statement_id.startswith("S"):
                worst = max(worst, r.max_residual)
    mv = run_sea_suite("mv", 8, samples=200, seed=42)
    ok = ok and mv.verdict
    mv_exact = all(r.max_residual == 0.0 for r in mv.results
                   if r.statement_id.startswith("S"))
    elapsed = time.monotonic() - started
    ok = ok and worst <= CHECK and mv_exact and elapsed < 60.0
    report(1, ok, f"sequential axioms, dims 2-8 at 200 samples "
                  f"(worst residual {worst:.2e}, mv exact {mv_exact}, "
                  f"{elapsed:.1f}s)")


def test_criterion_02_symmetrized_product_control():
    rep = run_sea_suite("matrix", 2, samples=200, seed=42, control=True)
    s3 = next(r for r in rep.results if r.statement_id == "S3")
    ok = (not rep.verdict and s3.passed < s3.samples
          and s3.witness is not None and "min_eigenvalue" in s3.witness)
    report(2, ok, f"symmetrized product breaks the kernel axiom "
                  f"({s3.samples - s3.passed} witnesses at dim 2)")


def test_criterion_03_five_way_equivalence():
    disagreements = 0
    total = 0
    keys = ("compress_below", "block_sum", "interval_sum", "mackey", "meet")
    for dim in DIMS:
        sampler = sm.EffectSampler(1000 + dim, dim)
        ks = np.arange(500)
        # even pairs commute, odd ones are drawn in two frames
        p, a = sampler.commuting(ks, sampler.projection, sampler.effect)
        a = MATRIX.where(ks % 2 == 0, a, sampler.effect(ks))
        flags = _five_way(MATRIX, p, a)
        total += len(ks)
        disagreements += int(np.count_nonzero(~np.all(
            [flags[key] == flags[keys[0]] for key in keys], axis=0)))
    ok = disagreements == 0 and total == 500 * len(DIMS)
    report(3, ok, f"five-way equivalence agreed on {total} pairs "
                  f"({disagreements} disagreements)")


def test_criterion_04_spectral_reconstruction():
    worst_exact = 0.0
    worst_mesh = 0.0
    ok = True
    for dim in DIMS:
        sampler = sm.EffectSampler(2000 + dim, dim)
        for a in sampler.effect(range(100)):
            fam = spectral_family(a, MATRIX)
            gap = operator_norm(np.asarray(a.matrix) - reconstruct(fam))
            worst_exact = max(worst_exact, gap)
            for mesh in (0.1, 0.01, 0.001):
                gap = operator_norm(np.asarray(a.matrix)
                                    - reconstruct(fam, mesh))
                ok = ok and gap <= mesh
                worst_mesh = max(worst_mesh, gap / mesh)
    ok = ok and worst_exact <= CHECK
    report(4, ok, f"reconstruction: breakpoint {worst_exact:.2e}, "
                  f"worst mesh ratio {worst_mesh:.3f}")


def test_criterion_05_closed_form_families(level_set_family):
    ok = True
    for k in range(100):
        dim = 2 + k % 7
        a = sm.EffectSampler(3000 + k, dim).simple(range(1))[0]
        rep = reduced_representation(a, MATRIX)
        fam = spectral_family(a, MATRIX)
        steps = [np.zeros((dim, dim), dtype=np.complex128)]
        for p in rep.projections:
            steps.append(steps[-1] + p)
        ok = ok and len(fam.projections) == len(steps)
        for engine_p, closed_p in zip(fam.projections, steps):
            ok = ok and frobenius(engine_p - closed_p) <= CHECK
    for k in range(100):
        a = sm.FuzzySampler(3100 + k, 6).effect(range(1))[0]
        fam = spectral_family(a, MV)
        closed = level_set_family(a)
        ok = ok and np.array_equal(fam.breakpoints, closed.breakpoints)
        for engine_p, closed_p in zip(fam.projections, closed.projections):
            ok = ok and np.array_equal(engine_p, closed_p)
    report(5, ok, "step-formula families, 100 matrix + 100 mv elements")


def test_criterion_06_simple_approximation():
    ok = True
    for k in range(100):
        dim = 2 + k % 7
        a = sm.EffectSampler(4000 + k, dim).effect(range(1))[0]
        previous = None
        for n in range(1, 11):
            an = np.asarray(simple_approximation(a, n, MATRIX))
            gap = operator_norm(np.asarray(a.matrix) - an)
            ok = ok and gap <= 2.0 ** -n + CHECK
            if previous is not None:
                ok = ok and MATRIX.leq(previous, an)
            previous = an
    report(6, ok, "dyadic approximations within 2^-n, ascending, n=1..10")


def test_criterion_07_floor_identities():
    ok = True
    worst = 0.0
    for k in range(100):
        dim = 2 + k % 7
        sampler = sm.EffectSampler(5000 + k, dim)
        a = sampler.with_top(range(1), 1)[0]
        base = MATRIX.floor(a)
        d = a.decomposition
        cols = d.vectors[:, d.values >= 1.0 - DEFAULT.cluster]
        direct = cols @ cols.conj().T
        gap = frobenius(base.matrix - direct)
        ok = ok and gap <= CHECK
        mu_max = float(max((v for v in d.values if v < 1.0 - DEFAULT.cluster),
                           default=0.0))
        power = MATRIX.powers(a, 50)[-1]
        rate_gap = operator_norm(power - np.asarray(base.matrix))
        ok = ok and rate_gap <= mu_max ** 50 + CHECK
        worst = max(worst, rate_gap)
    report(7, ok, f"floor equals top cluster and a^50 converges "
                  f"(worst gap {worst:.2e})")


def test_criterion_08_commutation_equivalence():
    disagreements = 0
    for k in range(400):
        dim = 2 + k % 7
        sampler = sm.EffectSampler(6000 + k, dim)
        if k < 200:
            a, b = (x[0] for x in sampler.commuting(range(1)))
        else:
            a, b = sampler.effect(range(2))
        am, bm = np.asarray(a.matrix), np.asarray(b.matrix)
        seq = frobenius(MATRIX.product(a, b)
                        - MATRIX.product(b, a)) <= CHECK
        lie = frobenius(am @ bm - bm @ am) <= CHECK
        projs_a = spectral_family(a, MATRIX).projections
        projs_b = spectral_family(b, MATRIX).projections
        spectral = all(frobenius(p @ q - q @ p) <= CHECK
                       for p in projs_a for q in projs_b)
        if not seq == lie == spectral:
            disagreements += 1
    ok = disagreements == 0
    report(8, ok, f"three-way commutation equivalence on 400 pairs "
                  f"({disagreements} disagreements)")


def test_criterion_09_decomposition_uniqueness():
    ok = True
    checked = 0
    for dim in DIMS:
        rng = np.random.default_rng(7000 + dim)
        frames = sm.EffectSampler(7000 + dim, dim).frame(range(100))
        for k, u in enumerate(frames):
            # A Hermitian matrix with a kernel of dimension k % 3.
            zeros = k % 3 if dim > 2 else k % 2
            values = np.concatenate([
                np.zeros(zeros), rng.uniform(-1.0, 1.0, dim - zeros)])
            v = hermitian_part((u * values) @ u.conj().T)
            splits = []
            for q in sign_witness_projections(v, MATRIX):
                plus = MATRIX.compress(q, v)
                minus = -MATRIX.compress(MATRIX.complement(q), v)
                splits.append((plus, minus))
            checked += len(splits)
            for plus, minus in splits[1:]:
                ok = ok and frobenius(plus - splits[0][0]) <= CHECK
                ok = ok and frobenius(minus - splits[0][1]) <= CHECK
    report(9, ok, f"orthogonal decompositions agree across "
                  f"{checked} sign witnesses")


def test_criterion_10_finite_table_oracle():
    ok = True
    for name in ("lukasiewicz-3", "lukasiewicz-5", "boolean-2", "boolean-3"):
        alg = builtin_table(name)
        emb = fuzzy_embedding(name)
        ok = ok and incompatible_pairs(alg) == []
        for i in range(alg.size):
            for j in range(alg.size):
                ok = ok and alg.order[i, j] == MV.leq(emb[i], emb[j])
                ok = ok and bool(alg.compatibility[i, j])
                inf = alg.brute_inf([i, j])
                ok = ok and inf is not None
                ok = ok and np.array_equal(emb[inf], MV.meet(emb[i], emb[j]))
    dia = builtin_table("diamond")
    ok = ok and fuzzy_embedding("diamond") is None
    ok = ok and incompatible_pairs(dia) == [(1, 2)]
    ok = ok and dia.brute_inf([1, 2]) == 0 and dia.brute_sup([1, 2]) == 3
    report(10, ok, "table brute force matches the pointwise model exactly")


def test_criterion_11_deterministic_reports(tmp_path):
    texts = []
    for run in range(2):
        out = tmp_path / f"report-{run}.json"
        code = main(["verify", "--suite", "all", "--dim", "3",
                     "--samples", "30", "--seed", "7", "--out", str(out)])
        assert code == 0
        texts.append(out.read_bytes())
    ok = texts[0] == texts[1] and len(texts[0]) > 0
    report(11, ok, f"verify --suite all is byte-identical "
                   f"({len(texts[0])} bytes)")
