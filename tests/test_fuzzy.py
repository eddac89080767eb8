"""Pointwise model on a finite set: lattice laws, contexts, embeddings."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seakit import matrices as mx
from seakit.config import DEFAULT
from seakit.fuzzy import FuzzyContext, spectrum_representation
from seakit.linalg import frobenius, operator_norm
from seakit.sampling import EffectSampler, FuzzySampler
from seakit.spectral import (
    comparability_witness,
    reduced_representation,
    spectral_family,
)
from seakit.verify import _block_starts

CTX = FuzzyContext()


def fs(*values):
    return np.array(values, dtype=float)


def indicator(space: int, points) -> np.ndarray:
    vals = np.zeros(space)
    vals[list(points)] = 1.0
    return vals


def test_partial_sum():
    total = CTX.add(fs(0.2, 0.5), fs(0.3, 0.5))
    assert np.array_equal(total, [0.5, 1.0]) and CTX.leq(total, np.ones(2))
    assert not CTX.leq(CTX.add(fs(0.8, 0.0), fs(0.3, 0.0)), np.ones(2))
    a = fs(0.7, 0.1)
    assert np.array_equal(CTX.add(a, np.zeros(2)), a)


def test_pointwise_product():
    assert np.array_equal(CTX.product(fs(0.5, 1.0), fs(0.4, 0.2)),
                          [0.2, 0.2])
    a = fs(0.3, 0.6)
    assert np.array_equal(CTX.product(a, np.ones(2)), a)
    p = indicator(2, [0])
    assert np.array_equal(CTX.product(p, a), CTX.meet(p, a))


def test_residual_of_tiny_values_does_not_underflow():
    """The norm of a - b is taken of the difference over its largest
    entry and scaled back, so a difference of 1e-200, whose square
    underflows to 0, reads as itself; on matrices too, for 1e-200·I."""
    assert CTX.residual(fs(1e-200), fs(0.0)) == 1e-200
    assert CTX.residual(np.array([[1e-200], [0.5], [0.0]]),
                        fs(0.0)).tolist() == [1e-200, 0.5, 0.0]
    matrix = mx.MatrixContext()
    assert matrix.residual(1e-200 * np.eye(1), np.zeros((1, 1))) == 1e-200
    assert matrix.residual(1e-200 * np.eye(3), np.zeros((3, 3))) == \
        pytest.approx(3 ** 0.5 * 1e-200, rel=1e-15)


def test_difference_and_negation():
    assert np.array_equal(CTX.sub(fs(0.75, 0.5), fs(0.25, 0.5)), [0.5, 0.0])
    assert np.array_equal(CTX.complement(fs(0.25, 1.0)), [0.75, 0.0])


def test_sharpness_and_compression():
    assert CTX.is_sharp(indicator(3, [0, 2]))
    assert not CTX.is_sharp(fs(0.5, 0.0))
    # 1e-200 squared underflows; the check stays exact all the same
    assert not CTX.is_sharp(fs(1e-200, 1.0))
    assert list(CTX.is_sharp(np.array([[1e-200, 1.0], [0.0, 1.0]]))) == [
        False, True]
    p = indicator(2, [0])
    assert np.array_equal(CTX.compress(p, fs(0.3, 0.6)), [0.3, 0.0])
    assert np.array_equal(CTX.floor(fs(1.0, 0.5, 0.0)), [1.0, 0.0, 0.0])
    assert np.array_equal(CTX.cover(fs(1.0, 0.5, 0.0)), [1.0, 1.0, 0.0])


def test_reduced_representation_level_sets():
    rep = reduced_representation(fs(0.2, 0.2, 0.9), CTX)
    assert rep.coefficients.tolist() == [0.2, 0.9]
    assert [p.tolist() for p in rep.projections] == [
        [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    rep = reduced_representation(fs(0.4, 0.4, 0.4), CTX)
    assert rep.coefficients.tolist() == [0.4]
    assert rep.projections[0].tolist() == [1.0, 1.0, 1.0]
    rep = reduced_representation(fs(0.0, 1.0), CTX)
    assert rep.coefficients.tolist() == [0.0, 1.0]


def test_delta_merging_is_opt_in():
    rep = reduced_representation(fs(0.3, 0.4, 0.9), CTX)
    assert _block_starts(rep.coefficients, rep.own, 0.0).tolist() == [
        True] * 3
    starts = _block_starts(rep.coefficients, rep.own, 0.15)
    assert rep.coefficients[starts].tolist() == [0.3, 0.9]
    merged = np.add.reduceat(rep.projections, np.flatnonzero(starts))
    assert [np.flatnonzero(p).tolist() for p in merged] == [[0, 1], [2]]
    # a stack: each member merges its own blocks, and padding starts none
    rep = reduced_representation(
        np.array([[0.3, 0.4, 0.9], [0.2, 0.2, 0.5]]), CTX)
    assert _block_starts(rep.coefficients, rep.own, 0.15).tolist() == [
        [True, True], [False, True], [True, False]]


def test_family_matches_threshold_oracle():
    a = fs(0.2, 0.2, 0.9)
    fam = spectral_family(a, CTX)
    # oracle: the step at lam is the indicator of {x : a(x) <= lam}
    for lam in [0.0, 0.1, 0.2, 0.5, 0.89, 0.9, 1.0]:
        assert np.array_equal(fam.at(lam),
                              (a <= lam).astype(float))


def test_family_edge_cases():
    fam = spectral_family(np.zeros(3), CTX)
    assert np.array_equal(fam.at(0.0), np.ones(3))
    p = indicator(2, [0])
    fam = spectral_family(p, CTX)
    assert np.array_equal(fam.at(0.0), [0.0, 1.0])
    assert np.array_equal(fam.at(0.999), [0.0, 1.0])
    assert np.array_equal(fam.at(1.0), [1.0, 1.0])


def test_family_reconstructs_exactly():
    a = fs(0.25, 0.5, 0.5, 1.0)
    fam = spectral_family(a, CTX)
    total = np.zeros(4)
    for b, jump in zip(fam.breakpoints, np.diff(fam.projections, axis=0)):
        total = total + b * jump
    assert np.array_equal(total, a)


def test_reduced_representation_is_unique(level_set_family):
    a = fs(0.125, 0.75, 0.125, 0.375)
    rep = reduced_representation(a, CTX)
    closed = level_set_family(a)
    assert np.array_equal(rep.coefficients, closed.breakpoints)
    for p, jump in zip(rep.projections,
                       np.diff(closed.projections, axis=0), strict=True):
        assert np.array_equal(p, jump)


def test_fuzzy_context_thresholds_are_exact():
    ctx = FuzzyContext()
    a = np.array([0.0, 0.3, 0.7])
    assert np.array_equal(ctx.rickart(a), [1.0, 0.0, 0.0])
    assert np.array_equal(ctx.cover(a), [0.0, 1.0, 1.0])
    assert np.array_equal(ctx.compress(np.array([1.0, 1.0, 0.0]),
                                       np.array([0.5, 0.25, 0.8])),
                          [0.5, 0.25, 0.0])
    assert ctx.commutes(a, np.array([0.9, 0.1, 0.0]))


@pytest.mark.parametrize("verb", ["add", "sub", "residual", "norm", "leq",
                                  "is_sharp", "zero_like", "shift", "where"])
def test_verbs_with_one_formula_are_written_once(verb):
    """The verbs whose formula reads only ``raw``, ``mul``, ``extremes``,
    ``one_like`` and ``element_ndim`` are the matrix model's functions."""
    assert getattr(FuzzyContext, verb) is getattr(mx.MatrixContext, verb)


def test_witness_is_the_indicator_of_e_below_f():
    """On the mv model the comparability witness is exact: p is the
    indicator of e <= f, ties included, and a pair is degenerate exactly
    where some value ties; each member's as the pair's on its own."""
    smp = FuzzySampler(5, 6)
    e, f = (np.array(smp.effect(range(8))) for _ in range(2))
    f[::2, :3] = e[::2, :3]  # three ties in every other member
    f[1] = e[1]
    wit = comparability_witness(e, f, CTX)
    assert np.array_equal(wit.p, (e <= f).astype(float))
    assert np.array_equal(wit.degenerate, np.any(e == f, axis=-1))
    assert wit.degenerate.any() and not wit.degenerate.all()
    for i in range(len(e)):
        one = comparability_witness(e[i], f[i], CTX)
        assert np.array_equal(one.p, (e[i] <= f[i]).astype(float))
        assert one.degenerate == bool(np.any(e[i] == f[i]))
    with pytest.raises(mx.DimensionMismatchError,
                       match="dimensions differ: 1 vs 2"):
        comparability_witness(fs(0.5), fs(0.5, 0.5), CTX)


def test_spectrum_representation_of_diagonal():
    a = mx.validate_effect(np.diag([0.2, 0.7]))
    image, report = spectrum_representation(a)
    assert image.tolist() == pytest.approx([0.2, 0.7])
    assert report.space == 2
    assert report.degree == 6
    assert report.mult_residual <= 1e-8
    assert report.isometry_residual <= 1e-8
    # the image of a (.) a is the pointwise square
    assert image ** 2 == pytest.approx([0.04, 0.49])


def test_spectrum_representation_degenerate_and_sharp():
    lam_i = mx.validate_effect(0.3 * np.eye(3))
    image, report = spectrum_representation(lam_i)
    assert report.space == 1
    assert image.tolist() == pytest.approx([0.3])
    sampler = EffectSampler(3, 4)
    p = sampler.span(sampler.frame(range(1)), 0, 2)[0]
    image, _ = spectrum_representation(p)
    assert set(np.round(image, 8)) <= {0.0, 1.0}


def test_spectrum_representation_wraps_each_power_once(eigh_calls):
    """The identity and the powers are wrapped as one stack before the
    product pairs, so their square roots take one eigh call and their
    norms one more: 2 on a generic dim-8 effect at degree 6, where
    wrapping each power on its own made 14, and wrapping per pair 35."""
    a = EffectSampler(3, 8).effect(range(1))[0]
    before = eigh_calls.count
    spectrum_representation(a)
    assert eigh_calls.count - before == 2


def looped_representation(a, degree=6, tol=DEFAULT):
    """``spectrum_representation`` one cluster, one power and one pair at
    a time, as it was written before the stacks: the image, the number of
    pairs and the two residuals."""
    def phi(d, matrix):
        vals = []
        defect = 0.0
        for start, size in zip(d.runs.start.tolist(), d.runs.size.tolist()):
            cols = d.vectors[:, list(range(start, start + size))]
            block = cols.conj().T @ matrix @ cols
            mean = float(np.mean(np.real(np.diag(block))))
            defect = max(defect, frobenius(block - mean * np.eye(size)))
            vals.append(mean)
        return np.array(vals), defect

    d = a.decomposition
    image = np.clip(d.cluster_values, 0.0, 1.0)
    ctx = mx.MatrixContext(tol)
    mats = [np.eye(a.dim, dtype=np.complex128), *ctx.powers(a, degree)]
    phis = []
    mult = 0.0
    for m in mats:
        value, defect = phi(d, m)
        phis.append(value)
        mult = max(mult, defect)
    elements = [ctx.element(m) for m in mats]
    samples = 0
    for i in range(len(mats)):
        for j in range(len(mats)):
            if i + j > degree:
                continue
            value, defect = phi(d, ctx.product(elements[i], elements[j]))
            mult = max(mult, defect,
                       float(np.max(np.abs(value - phis[i] * phis[j]))))
            samples += 1
    iso = 0.0
    for m, phi_m in zip(mats, phis):
        iso = max(iso, abs(operator_norm(m) - float(np.max(np.abs(phi_m)))))
    return image, samples, mult, iso


def test_spectrum_representation_equals_the_cluster_loop():
    """The stacked clusters, powers and pairs give the bits of the loop
    over them, on effects rebuilt from their matrices as ``seakit mv``
    reads them: generic, simple, with a top cluster, and projections."""
    for n in range(1, 11):
        smp = EffectSampler(40 + n, n)
        drawn = [stack[i] for stack in (
            smp.effect(range(3)), smp.simple(range(3)),
            smp.with_top(range(3), n // 2), smp.projection(range(3)))
            for i in range(3)]
        for x in drawn:
            a, b = mx.Effect(x.matrix), mx.Effect(x.matrix)
            image, rep = spectrum_representation(a)
            want, samples, mult, iso = looped_representation(b)
            assert image.tobytes() == want.tobytes()
            assert rep.samples == samples
            assert rep.mult_residual.hex() == mult.hex()
            assert rep.isometry_residual.hex() == iso.hex()


def test_sampler_reproducible_and_summable():
    one_s = FuzzySampler(3, 5)
    two_s = FuzzySampler(3, 5)
    ks = range(6)
    assert np.array_equal(one_s.effect(ks), two_s.effect(ks))
    a, b = one_s.summable_pair(ks)
    assert CTX.leq(CTX.add(a, b), np.ones(5)).all()
    c, a, b = one_s.refined_commuting(ks)
    assert CTX.leq(CTX.add(CTX.add(a, b), c), np.ones(5)).all()
    a, b = one_s.orthogonal_pair(ks)
    assert not CTX.product(a, b).any()
    lam = one_s.scalar(ks, 0.05, 1.0)
    assert np.all((0.05 <= lam) & (lam <= 1.0) & (lam * 256 % 1 == 0))
    ticks = one_s.effect(ks, 0.3, 0.7) * 256
    assert np.all((ticks >= 77) & (ticks <= 179) & (ticks % 1 == 0))


def test_sampler_draws_are_float_arrays():
    """An mv element is its value array: every draw that gives elements
    gives float arrays, one value per point."""
    smp = FuzzySampler(5, 6)
    ks = range(3)
    u = smp.frame(ks)
    p = smp.projection(ks)
    draws = [smp.span(u, 1, 4), smp.effect(ks), smp.effect(ks, 0.25, 0.5), p,
             smp.with_values(ks, [0, 1, 0.5, 0.25, 1, 0]), smp.simple(ks),
             smp.signed(ks), smp.with_top(ks, 2), smp.commuting_with(ks, p),
             smp.commuting_with(ks, p, on=1.0), smp.split_effect(ks, u, 2),
             *smp.commuting(ks),
             *smp.commuting(ks, smp.projection, smp.effect),
             *smp.orthogonal_pair(ks), *smp.summable_pair(ks),
             *smp.refined_commuting(ks)]
    for x in draws:
        assert type(x) is np.ndarray and x.dtype == np.float64
        assert x.shape == (3, 6)


dyadic = st.integers(min_value=0, max_value=256).map(lambda k: k / 256)
vectors = st.lists(dyadic, min_size=3, max_size=3)


@given(vectors, vectors)
def test_mv_identity(xs, ys):
    a, b = fs(*xs), fs(*ys)
    left = CTX.sub(CTX.join(a, b), a)
    right = CTX.sub(b, CTX.meet(a, b))
    assert np.array_equal(left, right)


@given(st.lists(vectors, min_size=2, max_size=6))
def test_ascending_sequences_have_pointwise_suprema(rows):
    chain = []
    acc = np.zeros(3)
    for row in rows:
        acc = np.maximum(acc, np.array(row))
        chain.append(acc.copy())
    sup = chain[-1]
    assert all(CTX.leq(c, sup) for c in chain)
    bound = np.minimum(1.0, sup + 0.25)
    assert CTX.leq(sup, bound)
