"""Spectral families, reconstruction, approximations, decompositions."""
import bisect
import json
import math

import numpy as np
import pytest

from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import sampling as sm
from seakit.cli import main
from seakit.config import DEFAULT
from seakit.linalg import operator_norm
from seakit.spectral import (
    comparability_witness,
    eigenprojection,
    family_from_representation,
    orthogonal_decomposition,
    reconstruct,
    reduced_representation,
    simple_approximation,
    sign_witness_projections,
    spectral_family,
)


MATRIX = mx.MatrixContext(DEFAULT)
FUZZY = fz.FuzzyContext(DEFAULT)


def effect(*values):
    return mx.validate_effect(np.diag(np.array(values, dtype=float)))


def test_family_of_diagonal_effect():
    fam = spectral_family(effect(0.2, 0.7), MATRIX)
    assert fam.breakpoints.tolist() == [0.2, 0.7]
    assert np.allclose(fam.at(0.1), np.zeros((2, 2)), atol=1e-10)
    assert np.allclose(fam.at(0.3), np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(fam.at(0.7), np.eye(2), atol=1e-10)
    assert fam.L == pytest.approx(0.2)
    assert fam.U == pytest.approx(0.7)


def test_family_of_projection_and_scalar():
    p = mx.validate_effect(np.diag([1.0, 0.0]))
    fam = spectral_family(p, MATRIX)
    assert fam.breakpoints.tolist() == [0.0, 1.0]
    assert np.allclose(fam.at(0.5), np.diag([0.0, 1.0]), atol=1e-10)
    fam = spectral_family(effect(0.4, 0.4), MATRIX)
    assert fam.breakpoints.tolist() == [0.4]
    assert np.allclose(fam.at(0.4), np.eye(2), atol=1e-10)


def test_family_is_right_continuous_with_eigen_jumps():
    a = effect(0.2, 0.5, 0.5)
    fam = spectral_family(a, MATRIX)
    for b, jump in zip(fam.breakpoints, np.diff(fam.projections, axis=0)):
        eps = 1e-9
        assert np.allclose(fam.at(b + eps), fam.at(b), atol=1e-8)
        proj = eigenprojection(a, b, MATRIX)
        assert np.allclose(jump, proj, atol=1e-8)
    assert np.allclose(eigenprojection(a, 0.3, MATRIX),
                       np.zeros((3, 3)),
                       atol=1e-10)


def test_reconstruction_error_tracks_mesh():
    sampler = sm.EffectSampler(13, 5)
    for a in sampler.effect(range(5)):
        fam = spectral_family(a, MATRIX)
        exact = reconstruct(fam)
        assert operator_norm(np.asarray(a.matrix) - exact) <= 1e-8
        for mesh in (0.1, 0.01, 0.001):
            approx = reconstruct(fam, mesh)
            assert operator_norm(np.asarray(a.matrix) - approx) <= mesh


def test_meshed_tags_match_the_listed_partition():
    """reconstruct finds each tag without listing the partition; its sums
    equal, bit for bit, those of the partition listed point by point."""
    def listed(fam, mesh):
        bps = fam.breakpoints
        lo, hi = bps[0], bps[-1]
        count = max(1, math.ceil((hi - lo + mesh) / mesh - 1e-12))
        points = [hi - (count - i) * mesh for i in range(count + 1)]
        acc = np.zeros_like(fam.projections[0])
        for b, jump in zip(bps, np.diff(fam.projections, axis=0)):
            tag = points[min(bisect.bisect_left(points, b), count)]
            acc = acc + tag * jump
        return acc

    sampler = sm.EffectSampler(21, 4)
    rng = np.random.default_rng(21)
    elements = [(MATRIX, a) for a in sampler.effect(range(4))]
    elements += [(MATRIX, a) for a in sampler.simple(range(4))]
    elements += [(MATRIX, effect(0.0, 0.25, 1.0)),
                 (MATRIX, effect(0.5, 0.5, 0.5))]
    elements += [(FUZZY, rng.integers(0, 257, 9) / 256)
                 for _ in range(4)]
    meshes = [0.1, 0.01, 1e-3, 1e-4] + list(10.0 ** rng.uniform(-4, -1, 8))
    for ctx, a in elements:
        fam = spectral_family(a, ctx)
        for mesh in meshes:
            assert np.array_equal(reconstruct(fam, mesh), listed(fam, mesh))
    a = elements[0][1]
    fam = spectral_family(a, MATRIX)
    fine = reconstruct(fam, 1e-12)
    assert operator_norm(np.asarray(a.matrix) - fine) <= 1e-8
    for mesh in (1e-320, 5e-324):
        with pytest.raises(ValueError, match="too fine"):
            reconstruct(fam, mesh)
    flat = spectral_family(effect(0.5, 0.5, 0.5), MATRIX)
    assert np.allclose(reconstruct(flat, 5e-324), np.eye(3) * 0.5)


def test_simple_approximation_dyadic_staircase():
    a = effect(0.2, 0.7)
    a1 = simple_approximation(a, 1, MATRIX)
    assert np.allclose(a1, np.diag([0.0, 0.5]), atol=1e-10)
    a3 = simple_approximation(a, 3, MATRIX)
    assert np.allclose(a3, np.diag([0.125, 0.625]), atol=1e-10)
    with pytest.raises(ValueError):
        simple_approximation(a, 0, MATRIX)


def test_orthogonal_decomposition_of_diagonal():
    dec = orthogonal_decomposition(np.diag([0.3, -0.4]), MATRIX)
    assert np.allclose(np.asarray(dec.v_plus), np.diag([0.3, 0.0]),
                       atol=1e-10)
    assert np.allclose(np.asarray(dec.v_minus), np.diag([0.0, 0.4]),
                       atol=1e-10)
    assert np.allclose(dec.p, np.diag([1.0, 0.0]), atol=1e-10)


def test_sign_witnesses_agree():
    v = np.diag([0.5, -0.2, 0.0])
    splits = []
    for q in sign_witness_projections(v, MATRIX):
        plus = MATRIX.compress(q, v)
        minus = -MATRIX.compress(MATRIX.complement(q), v)
        splits.append((plus, minus))
    assert len(splits) >= 2
    for plus, minus in splits[1:]:
        assert np.allclose(plus, splits[0][0], atol=1e-8)
        assert np.allclose(minus, splits[0][1], atol=1e-8)


def test_comparability_witness_sidewise():
    e, f = effect(0.3, 0.6), effect(0.5, 0.4)
    wit = comparability_witness(e, f, MATRIX)
    assert np.allclose(wit.p, np.diag([1.0, 0.0]), atol=1e-10)
    assert not wit.degenerate
    tie = comparability_witness(effect(0.3, 0.5), effect(0.3, 0.7), MATRIX)
    assert tie.degenerate


def test_comparability_needs_commutation():
    e = mx.validate_effect(np.array([[0.5, 0.1], [0.1, 0.5]]))
    f = effect(0.3, 0.8)
    with pytest.raises(mx.NotCommutingError):
        comparability_witness(e, f, MATRIX)


def test_reduced_representation_round_trip():
    a = effect(0.2, 0.2, 0.9)
    rep = reduced_representation(a, MATRIX)
    assert list(rep.coefficients) == pytest.approx([0.2, 0.9])
    fam = spectral_family(a, MATRIX)
    rebuilt = family_from_representation(rep.coefficients, rep.projections)
    assert np.array_equal(rebuilt.breakpoints, fam.breakpoints)
    for lam in (0.1, 0.2, 0.5, 0.9):
        assert np.allclose(rebuilt.at(lam), fam.at(lam), atol=1e-8)


def test_family_json_round_trip(level_set_family):
    """Each step of a family's JSON, read back by its context's reader,
    is the step itself."""
    families = (
        (MATRIX, spectral_family(sm.EffectSampler(21, 3).effect(range(1))[0],
                                 MATRIX)),
        (FUZZY, level_set_family(np.array([0.25, 0.75]))),
    )
    for ctx, fam in families:
        doc = json.loads(json.dumps(fam.to_json_dict(ctx)))
        assert doc["breakpoints"] == fam.breakpoints.tolist()
        assert doc["model"] == ctx.model
        for step, written in zip(fam.projections, doc["projections"],
                                 strict=True):
            assert np.array_equal(ctx.read(written), step)


def test_fuzzy_elements_use_the_same_engine(level_set_family):
    a = np.array([0.2, 0.2, 0.9])
    fam = spectral_family(a, FUZZY)
    assert fam.breakpoints.tolist() == [0.2, 0.9]
    assert np.array_equal(fam.at(0.2), [1.0, 1.0, 0.0])
    engine = reconstruct(fam)
    assert np.array_equal(engine, a)
    closed = level_set_family(a)
    assert np.array_equal(closed.breakpoints, fam.breakpoints)


def test_csv_lines_format():
    fam = spectral_family(effect(0.2, 0.7), MATRIX)
    lines = fam.csv_lines(MATRIX)
    assert lines[0] == "lambda,rank"
    assert len(lines) == 102
    assert lines[1].startswith("0.000000,")
    assert lines[51] == "0.500000,1"
    assert lines[-1].endswith(",2")


ENGINE = {
    "spectral_family": spectral_family,
    "reduced_representation": reduced_representation,
    "simple_approximation": lambda v, ctx: simple_approximation(v, 3, ctx),
    "sign_witness_projections": sign_witness_projections,
    "orthogonal_decomposition": orthogonal_decomposition,
}


def test_one_decomposition_per_element(eigh_calls, tmp_path):
    sampler = sm.EffectSampler(8, 8)
    spectra = {"two": np.repeat([0.25, 0.75], 4),
               "eight": np.linspace(0.05, 0.95, 8)}
    for name, values in spectra.items():
        a = sampler.with_values(range(1), values)[0]
        for fn_name, fn in ENGINE.items():
            before = eigh_calls.count
            fn(a, MATRIX)
            assert eigh_calls.count == before, (name, fn_name, "cached")
            fn(np.array(a.matrix), MATRIX)
            assert eigh_calls.count == before + 1, (name, fn_name, "raw")
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"re": np.real(a.matrix).tolist(),
                                    "im": np.imag(a.matrix).tolist()}))
        out = str(tmp_path / f"{name}-out.json")
        # approx: the input, then the eight levels' gaps as one stack
        for argv, expected in ((["spectrum"], 3),
                               (["approx", "--levels", "8"], 2)):
            before = eigh_calls.count
            assert main(argv + ["--input", str(path), "--out", out]) == 0
            assert eigh_calls.count - before == expected, (name, argv)


def test_order_and_norm_checks_decompose_nothing(call_counter):
    """``operator_norm``, ``leq`` and ``extremes`` read eigenvalues only:
    one LAPACK call each and no clustered decomposition."""
    sampler = sm.EffectSampler(3, 4)
    a, b = sampler.effect(range(2))
    ctx = mx.MatrixContext()
    calls = call_counter("numpy.linalg.eigh",
                         "seakit.linalg.decomposition_from",
                         "seakit.linalg.cluster_starts")
    checks = {
        "operator_norm": lambda: operator_norm(a.matrix - b.matrix),
        "leq": lambda: ctx.leq(a, b),
        "extremes": lambda: ctx.extremes(a.matrix - b.matrix),
    }
    for name, check in checks.items():
        before = dict(calls.by_name)
        check()
        assert calls["numpy.linalg.eigh"] == \
            before["numpy.linalg.eigh"] + 1, name
        assert calls["seakit.linalg.decomposition_from"] == \
            before["seakit.linalg.decomposition_from"], name
        assert calls["seakit.linalg.cluster_starts"] == \
            before["seakit.linalg.cluster_starts"], name
