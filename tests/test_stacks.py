"""Stacks of elements: the order, norm and spectral verbs on a leading axis.

On both models a stack (``(k, n, n)`` matrices, ``(k, n)`` value arrays)
must give, member by member, the same bits as one call per member; one
element is the stack without the leading axis.  ``powers`` returns one
array, and on matrices it must equal the chained products it replaced;
so must the staircases of an array of levels.  A block of draws
(``draws``), returned as one stack per position of its recipe, must give
the bits, and leave the random stream where, the same draws made one by
one leave it.  The element verbs and the verifier's residual and tally
take stacks with the bits and counts of one call per member.
"""
import math
import warnings

import numpy as np
import pytest

from seakit.config import DEFAULT
from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import spectral as sp
from seakit import verify as vf
from seakit.linalg import (
    decomposition_from,
    frobenius,
    hermitian_part,
    per_member,
)

MODELS = {
    "matrix": (mx.MatrixContext(), lambda seed, n: mx.EffectSampler(seed, n)),
    "mv": (fz.FuzzyContext(), lambda seed, n: fz.FuzzySampler(seed, n)),
}
CASES = [(model, n, k) for model in sorted(MODELS)
         for n in (1, 2, 3, 4, 8) for k in (1, 5)]


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and x.shape == y.shape
            and x.tobytes() == y.tobytes())


def draws(model, n, k, seed=0):
    """k effects, k signed elements with exact zeros, and one effect, all
    as raw arrays; the signed stack and the effects are stacked."""
    ctx, sampler = MODELS[model]
    smp = sampler(seed, n)
    effects = np.stack([ctx.raw(smp.effect()) for _ in range(k)])
    signed = np.stack([ctx.raw(smp.signed()) for _ in range(k)])
    return ctx, smp, effects, signed


@pytest.mark.parametrize("model,n,k", CASES)
def test_reductions_on_a_stack_equal_the_member_calls(model, n, k):
    ctx, smp, effects, signed = draws(model, n, k)
    one = ctx.raw(smp.effect())
    for stack in (effects, signed, ctx.sub(effects, signed)):
        lo, hi = ctx.extremes(stack)
        norms = ctx.norm(stack)
        for i, x in enumerate(stack):
            member_lo, member_hi = ctx.extremes(x)
            assert type(member_lo) is float and type(member_hi) is float
            assert lo[i].hex() == member_lo.hex()
            assert hi[i].hex() == member_hi.hex()
            assert norms[i].hex() == ctx.norm(x).hex()
        # the order at the context's check, and at a check of 0.5 (which
        # the pointwise model zeroes)
        loose = type(ctx)(DEFAULT.replace(check=0.5))
        for a, b in ((stack, effects), (one, stack), (stack, one)):
            for c in (ctx, loose):
                got = c.leq(a, b)
                assert got.shape == (k,) and got.dtype == bool
                for i in range(k):
                    ai = a if a is one else a[i]
                    bi = b if b is one else b[i]
                    member = c.leq(ai, bi)
                    assert type(member) is bool and got[i] == member


@pytest.mark.parametrize("model,n,k", CASES)
def test_spectral_maps_on_a_stack_equal_the_member_calls(model, n, k):
    ctx, smp, effects, signed = draws(model, n, k)
    positive = ctx.positive_part(signed)
    kernels = ctx.rickart(signed)
    covers = ctx.rickart(positive)
    for i, x in enumerate(signed):
        assert same_bits(positive[i], ctx.positive_part(x))
        assert same_bits(kernels[i], ctx.rickart(x))
        assert same_bits(covers[i], ctx.rickart(ctx.positive_part(x)))
    lams = np.linspace(-0.5, 1.0, k)
    shifts = ctx.shift(effects[0], lams)
    for lam, shifted in zip(lams, shifts):
        assert same_bits(shifted, ctx.shift(effects[0], float(lam)))
    complements = ctx.complement(effects)
    for i, x in enumerate(effects):
        assert same_bits(complements[i], ctx.complement(x))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_hermitian_part_of_a_stack_is_member_by_member(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal(
        (3, n, n))
    sym = hermitian_part(stack)
    for i in range(3):
        assert same_bits(sym[i], hermitian_part(stack[i]))


def chained_matrix_powers(a, count):
    """Sequential powers as a chain of trusted effects, each product
    √(aᵏ) a √(aᵏ) formed from the seeded eigensystem of the last power."""
    d = a.decomposition
    base = np.clip(d.values, 0.0, 1.0)
    out = [a.matrix]
    cur = a
    power = base.copy()
    for _ in range(count - 1):
        s = cur.sqrt_matrix()
        power = power * base
        cur = mx.Effect(hermitian_part(s @ a.matrix @ s), tol=a.tol,
                        decomposition=decomposition_from(power, d.vectors,
                                                         a.tol))
        out.append(cur.matrix)
    return out


def chained_mv_powers(a, count):
    out = [a]
    for _ in range(count - 1):
        out.append(out[-1] * out[0])
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_powers_are_one_array_of_the_chained_products(model, n):
    ctx, sampler = MODELS[model]
    chained = chained_matrix_powers if model == "matrix" else \
        chained_mv_powers
    for seed in range(4):
        smp = sampler(seed, n)
        for a in (smp.effect(), smp.with_top(1), smp.projection()):
            powers = ctx.powers(a, 12)
            shape = np.shape(ctx.raw(a))
            assert powers.shape == (12, *shape)
            assert same_bits(powers, np.stack(chained(a, 12)))
            one = ctx.powers(a, 1)
            assert one.shape == (1, *shape)
            assert same_bits(one[0], np.asarray(ctx.raw(a)))
            for count in (2, 5):
                assert same_bits(ctx.powers(a, count), powers[:count])
        with pytest.raises(ValueError):
            ctx.powers(smp.effect(), 0)


def test_one_lapack_call_decomposes_a_stack(call_counter):
    ctx = mx.MatrixContext()
    smp = mx.EffectSampler(5, 4)
    stack = np.stack([smp.signed() for _ in range(6)])
    calls = call_counter("numpy.linalg.eigh")
    for verb in (ctx.norm, ctx.extremes, ctx.positive_part, ctx.rickart,
                 lambda x: ctx.leq(x, stack[0])):
        before = calls.count
        verb(stack)
        assert calls.count == before + 1


def test_per_member_unwraps_only_a_single_result():
    assert type(per_member(np.float64(0.5))) is float
    assert type(per_member(np.array(True))) is bool
    stacked = per_member(np.array([0.5, 0.25]))
    assert isinstance(stacked, np.ndarray) and stacked.shape == (2,)
    assert per_member(np.zeros((1,))).shape == (1,)


@pytest.mark.parametrize("model,n,k", CASES)
def test_commutes_on_a_stack_equals_the_member_calls(model, n, k):
    ctx, smp, effects, signed = draws(model, n, k)
    a, b = smp.commuting()
    stack = np.concatenate([effects, ctx.raw(a)[None]])
    for x, y in ((stack, b), (b, stack), (stack, stack[::-1])):
        got = ctx.commutes(x, y)
        assert got.shape == (k + 1,) and got.dtype == bool
        for i in range(k + 1):
            member = ctx.commutes(x if x is b else x[i],
                                  y if y is b else y[i])
            assert type(member) is bool and got[i] == member
    assert ctx.commutes(stack, b)[-1]
    if model == "mv":
        assert ctx.commutes(stack, b).all()
    else:
        braw = ctx.raw(b)
        commutators = stack @ braw - braw @ stack
        norms = frobenius(commutators)
        for i, c in enumerate(commutators):
            assert norms[i].hex() == frobenius(c).hex()


def looped_staircase(a, level, ctx):
    """The dyadic staircase at one level, as the loop over the
    eigenprojections that the array of levels replaced."""
    values, projs, _ = ctx.eigenprojections(a)
    scale = 2.0 ** level
    acc = ctx.zero_like(a)
    for lam, proj in zip(np.clip(values, 0.0, 1.0), projs):
        coeff = math.floor(float(lam) * scale + 1e-12) / scale
        acc = ctx.add(acc, ctx.scale(coeff, proj))
    return acc


@pytest.mark.parametrize("model,n,k", CASES)
def test_staircases_of_an_array_of_levels_equal_the_level_loop(model, n, k):
    ctx, smp, effects, signed = draws(model, n, k)
    levels = np.arange(1, 2 * k + 1)
    for a in (smp.effect(), smp.simple(), smp.projection(), smp.with_top(1)):
        shape = np.shape(ctx.raw(a))
        stairs = sp.simple_approximation(a, levels, ctx)
        assert stairs.shape == (len(levels), *shape)
        for level, step in zip(levels, stairs):
            assert same_bits(step, looped_staircase(a, int(level), ctx))
        one = sp.simple_approximation(a, 3, ctx)
        assert same_bits(one, looped_staircase(a, 3, ctx))
    with pytest.raises(ValueError):
        sp.simple_approximation(a, np.array([2, 0]), ctx)


def commuting_with(smp, k, fixed):
    p = smp.projection()
    return (p, smp.commuting_with(p, on=1.0), smp.commuting_with(p, off=0.0),
            smp.commuting_with(p))


# Each draw kind as a recipe ``(sampler, k, fixed) -> draws``; ``fixed`` is
# a projection drawn before the block, by another sampler.
RECIPES = {
    "frame": lambda smp, k, fixed: smp.frame(),
    "span": lambda smp, k, fixed: smp.span(smp.frame(), 0,
                                           k % (smp_dim(smp) + 1)),
    "commuting": lambda smp, k, fixed: smp.commuting(),
    "commuting_family": lambda smp, k, fixed: smp.commuting(
        smp.projection, smp.effect, smp.projection),
    "effect": lambda smp, k, fixed: smp.effect(0.25, 0.75),
    "effect_in_frame": lambda smp, k, fixed: smp.effect(frame=smp.frame()),
    "projection": lambda smp, k, fixed: smp.projection(),
    "with_values": lambda smp, k, fixed: smp.with_values(
        np.linspace(1.0, 0.0, smp_dim(smp))),
    "simple": lambda smp, k, fixed: smp.simple(),
    "signed": lambda smp, k, fixed: smp.signed(),
    "with_top": lambda smp, k, fixed: smp.with_top(k % (smp_dim(smp) + 1)),
    "commuting_with": commuting_with,
    "commuting_with_fixed": lambda smp, k, fixed: smp.commuting_with(fixed),
    "split_effect": lambda smp, k, fixed: smp.split_effect(
        smp.frame(), 1 + k % (smp_dim(smp) - 1)),
    "orthogonal_pair": lambda smp, k, fixed: smp.orthogonal_pair(),
    "summable_pair": lambda smp, k, fixed: smp.summable_pair(),
    "refined_commuting": lambda smp, k, fixed: smp.refined_commuting(),
}


def smp_dim(smp) -> int:
    return smp.dim if isinstance(smp, mx.EffectSampler) else smp.space


def draw_bits(x):
    """The bytes of a draw: an array's, a number's, and an Effect's
    matrix, eigenvalues and eigenvectors; a tuple or list member by
    member."""
    if isinstance(x, (tuple, list)):
        return [draw_bits(y) for y in x]
    if isinstance(x, mx.Effect):
        d = x.decomposition
        return [draw_bits(x.matrix), draw_bits(d.values),
                draw_bits(d.vectors)]
    assert isinstance(x, (np.ndarray, float, int)), type(x)
    return (np.asarray(x).dtype.str, np.shape(x), np.asarray(x).tobytes())


def member(column, k):
    """Sample k of a column of draws, position by position."""
    if isinstance(column, (tuple, list)):
        return type(column)(member(x, k) for x in column)
    return column[k]


def column_sizes(column):
    """The number of samples of each stack in a column of draws."""
    if isinstance(column, (tuple, list)):
        return [n for x in column for n in column_sizes(x)]
    assert isinstance(column, (np.ndarray, mx.Effect)), type(column)
    return [len(column)]


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("kind", sorted(RECIPES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_block_of_draws_equals_the_looped_draws(model, kind, count):
    """``draws`` returns one stack per position of the recipe, and member k
    of each has the bits of the draw the one-by-one loop made there."""
    _, sampler = MODELS[model]
    recipe = RECIPES[kind]
    for n in range(2 if kind == "split_effect" else 1, 9):
        fixed = sampler(99, n).projection()
        looped = sampler(n, n)
        expected = [recipe(looped, k, fixed) for k in range(count)]
        smp = sampler(n, n)
        got = smp.draws(range(count), lambda k: recipe(smp, k, fixed))
        assert set(column_sizes(got)) == {count}
        assert draw_bits([member(got, k) for k in range(count)]) == \
            draw_bits(expected), (kind, n)
        assert smp.rng.bit_generator.state == looped.rng.bit_generator.state


@pytest.mark.parametrize("n", range(2, 7))
def test_commuting_with_a_span_drawn_in_the_same_block(n):
    """A span drawn in the block gives ``commuting_with`` its eigensystem
    (ones on its columns), while its own matrix keeps the bits of the span
    drawn alone."""
    def recipe(smp, k):
        p = smp.span(smp.frame(), 0, 1 + k % (n - 1))
        return p, smp.commuting_with(p, on=1.0, off=0.25)

    smp, looped = mx.EffectSampler(n, n), mx.EffectSampler(n, n)
    p, a = smp.draws(range(6), lambda k: recipe(smp, k))
    for k in range(6):
        lp, la = recipe(looped, k)
        assert same_bits(p[k].matrix, lp.matrix)
        # a = p + (1 - p) / 4 exactly when a's eigenvectors are p's frame
        # columns in the order p's decomposition sorts them
        want = hermitian_part(0.75 * lp.matrix + 0.25 * np.eye(n))
        assert frobenius(a[k].matrix - want) <= 1e-12
        assert frobenius(a[k].matrix - la.matrix) <= 1e-12
    assert smp.rng.bit_generator.state == looped.rng.bit_generator.state
    smp = mx.EffectSampler(n, n)
    pair = smp.draws(range(2), lambda k: smp.commuting_with(
        smp.span(smp.frame(), 0, 2)))
    assert len(pair) == 2


def eager_effect(rng, n):
    """An effect as the sampler drew it one at a time: its values, then the
    Haar unitary of its own Ginibre matrix (QR with the phases of R's
    diagonal moved into Q), then its own stably sorted reconstruct; the
    matrix, values and vectors."""
    values = rng.uniform(0.0, 1.0, n)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q * (d / np.abs(d))
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], u[:, order]
    return hermitian_part((vectors * values) @ vectors.conj().T), values, \
        vectors


@pytest.mark.parametrize("n", range(1, 9))
def test_a_block_of_effects_equals_the_eager_construction(n):
    smp = mx.EffectSampler(n, n)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(n)))
    for count in (1, 5, 12):
        for effect in smp.draws(range(count), lambda k: smp.effect()):
            d = effect.decomposition
            assert draw_bits([effect.matrix, d.values, d.vectors]) == \
                draw_bits(list(eager_effect(rng, n)))


def test_a_block_takes_one_qr_per_frame_size(call_counter):
    smp = mx.EffectSampler(3, 4)
    calls = call_counter("numpy.linalg.qr")
    smp.draws(range(12), lambda k: (smp.commuting(), smp.effect(),
                             smp.split_effect(smp.frame(), 1)))
    assert calls.count == 3  # the frames of size 4, 1 and 3
    smp.draws(range(12), lambda k: smp.orthogonal_pair())
    assert calls.count == 4
    assert len(smp.draws(range(3), lambda k: smp.scalar())) == 3
    assert calls.count == 4


@pytest.mark.parametrize("model,n,k", CASES)
def test_element_verbs_on_a_stack_equal_the_member_calls(model, n, k):
    """product, scale (one λ per member), complement, element, is_sharp
    and residual of stacks, against one call per member; on matrices the
    eigensystems a scaled or complemented stack keeps, too."""
    ctx, sampler = MODELS[model]
    smp = sampler(n + 10 * k, n)
    a, b, lam, p = smp.draws(range(k), lambda i: (
        smp.effect(), smp.effect(), smp.scalar(), smp.projection()))
    raw = ctx.raw
    products = ctx.product(a, b)
    scaled = ctx.scale(lam, a)
    scaled_raw = ctx.scale(lam, raw(b))
    complements = ctx.complement(a)
    elements = ctx.element(ctx.add(a, b))
    sharp = np.concatenate([ctx.is_sharp(a), ctx.is_sharp(p)])
    residuals = ctx.residual(a, b)
    assert residuals.shape == sharp[:k].shape == (k,)
    for i in range(k):
        ai, bi, li = a[i], b[i], float(lam[i])
        assert same_bits(products[i], ctx.product(ai, bi))
        assert same_bits(raw(scaled[i]), raw(ctx.scale(li, ai)))
        assert same_bits(scaled_raw[i], ctx.scale(li, raw(bi)))
        assert same_bits(raw(complements[i]), raw(ctx.complement(ai)))
        assert same_bits(raw(elements[i]), raw(ctx.element(ctx.add(ai, bi))))
        for j, x in ((i, ai), (k + i, p[i])):
            member = ctx.is_sharp(x)
            assert type(member) is bool and sharp[j] == member
        member = ctx.residual(ai, bi)
        assert type(member) is float and residuals[i].hex() == member.hex()
        if model == "matrix":
            for stack, one in ((scaled, ctx.scale(li, ai)),
                               (complements, ctx.complement(ai))):
                d = stack.decomposition
                assert same_bits(d.values[i], one.decomposition.values)
                assert same_bits(d.vectors[i], one.decomposition.vectors)
    assert sharp[k:].all()
    if model == "matrix":
        with pytest.raises(ValueError):
            ctx.scale(np.linspace(0.0, 1.5, k + 1)[1:], a)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 32, 100, 1024])
def test_mv_residuals_of_a_stack_reduce_over_the_last_axis(size):
    """An (S, n) mv stack is S elements, not one matrix: the verifier's
    residual (the 2-norm over the size) and the context's are one per
    row, with the bits of the row on its own."""
    ctx = fz.FuzzyContext()
    rng = np.random.default_rng(size)
    a, b = rng.uniform(0.0, 1.0, (2, 4, size))
    run = vf._Run(ctx, None, n=size)
    got, norms = run.res(a, b), frobenius(a - b, 1)
    assert got.shape == norms.shape == ctx.residual(a, b).shape == (4,)
    for i in range(4):
        assert norms[i].hex() == float(np.linalg.norm(a[i] - b[i])).hex()
        assert got[i].hex() == run.res(a[i], b[i]).hex()
        assert ctx.residual(a, b)[i].hex() == ctx.residual(a[i], b[i]).hex()


def test_a_tally_of_arrays_equals_the_looped_tally():
    """One call with arrays gives the counts, the largest residual (NaN
    skipped) and the witness of the first failing sample that one call per
    sample, each a one-sample array, gives."""
    rng = np.random.default_rng(3)
    for first in (1, 4, 9):
        ok = np.ones(12, dtype=bool)
        ok[first] = False
        ok[first + 1:] &= rng.random(11 - first) > 0.3
        residual = rng.random(12)
        residual[2] = np.nan
        looped, stacked = vf._Tally(), vf._Tally()
        for k in range(12):
            looped.tally(ok[k:k + 1], residual[k:k + 1],
                         lambda _: {"sample": k})
        stacked.tally(ok, residual, lambda k: {"sample": k})
        assert stacked.witness == looped.witness == {"sample": first}
        assert (stacked.samples, stacked.passed) == \
            (looped.samples, looped.passed) == (12, int(ok.sum()))
        assert stacked.max_residual.hex() == looped.max_residual.hex()
    t = vf._Tally()
    t.tally(np.ones(3, dtype=bool))
    assert (t.samples, t.passed, t.max_residual, t.witness) == \
        (3, 3, 0.0, None)


class GivenDraws:
    """A sampler whose block of draws is given up front."""

    def __init__(self, columns):
        self.columns = columns

    def draws(self, ks, recipe):
        return self.columns


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_premise_mask_skips_its_members_without_warnings(model):
    """de:strongarch divides by the least eigenvalue of b - a where its
    premise holds; members with b = a fail the premise, and their zero
    must not reach the division."""
    ctx, sampler = MODELS[model]
    smp = sampler(4, 3)
    a, b = smp.draws(range(6), lambda k: (smp.effect(), smp.effect()))
    b = ctx.stack([a[k] if k % 2 == 0 else b[k] for k in range(6)])
    run = vf._Run(ctx, None, n=3, samples=6)
    t = vf._Tally()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vf._strongarch(run, ctx, GivenDraws((a, b)), np.arange(6), t)
    assert (t.samples, t.passed, t.witness) == (6, 6, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_meet_and_join_of_stacks_equal_the_member_calls(n):
    """a - (a - b)⁺ and b + (a - b)⁺ of a stack's pairs, with one stacked
    eigh of the differences, give each member's meet and join the bits of
    the pair on its own; raw stacks too."""
    ctx = mx.MatrixContext()
    smp = mx.EffectSampler(n, n)
    p, a = smp.draws(range(9), lambda k: smp.commuting(
        smp.projection if k % 3 else smp.effect, smp.effect))
    for first in (p, ctx.raw(p)):
        meets, joins = ctx.meet(first, a), ctx.join(first, a)
        for i in range(9):
            member = first[i]
            assert same_bits(meets[i], ctx.meet(member, a[i]))
            assert same_bits(joins[i], ctx.join(member, a[i]))
    if n > 1:
        with pytest.raises(mx.NotCommutingError):
            ctx.meet(p, smp.draws(range(9), lambda k: smp.effect()))


def cluster_stacks(model, n, k):
    """Stacks of k elements with generic spectra, repeated eigenvalues
    (levels, a top cluster, simple draws, a projection) and the signed
    elements with exact kernels, drawn on model with dimension n."""
    ctx, sampler = MODELS[model]
    smp = sampler(7 * n + k, n)
    levels = np.repeat([0.25, 0.5, 0.75], n)[:n]
    effects = smp.draws(range(k), lambda i: (
        smp.effect(), smp.with_values(np.roll(levels, i)),
        smp.with_top(i % (n + 1)), smp.simple(), smp.projection()))
    signed = smp.draws(range(k), lambda i: smp.signed())
    return ctx, smp, effects, signed


def assert_cluster_first(stacked, members):
    """Member i of cluster-first arrays: its own entries with the bits of
    its own call's, then its last one repeated."""
    for i, member in enumerate(members):
        own = len(member)
        assert same_bits(stacked[:own, i], np.asarray(member))
        for j in range(own, len(stacked)):
            assert same_bits(stacked[j, i], np.asarray(member)[-1])


@pytest.mark.parametrize("model,n,k", CASES)
def test_cluster_stacks_equal_the_member_calls(model, n, k):
    """The eigenprojections of a stack, and the representation, family
    and reconstructions built on them, give each member the bits of its
    own call: cluster first, a member with fewer clusters repeating its
    last value and step, with zero projections past its own, which the
    mask of own clusters leaves out; one element's mask is all true."""
    ctx, smp, effects, signed = cluster_stacks(model, n, k)
    for a in (*effects, signed):
        members = [a[i] for i in range(k)]
        values, projs, own = ctx.eigenprojections(a)
        rep = sp.reduced_representation(a, ctx)
        fam = sp.spectral_family(a, ctx)
        singles = [ctx.eigenprojections(x) for x in members]
        counts = [len(v) for v, _, _ in singles]
        want = np.arange(len(values))[:, None] < np.array(counts)
        assert same_bits(own, want)
        assert same_bits(rep.own, want)
        for count, (_, _, one) in zip(counts, singles):
            assert same_bits(one, np.ones(count, dtype=bool))
        singles = [(v, p) for v, p, _ in singles]
        assert_cluster_first(values, [v for v, _ in singles])
        assert_cluster_first(rep.coefficients, [v for v, _ in singles])
        assert_cluster_first(fam.breakpoints, [v for v, _ in singles])
        for i, (v, p) in enumerate(singles):
            assert same_bits(projs[:len(v), i], np.asarray(p))
            assert not projs[len(v):, i].any()
            assert same_bits(rep.projections[:len(v), i], np.asarray(p))
        assert_cluster_first(fam.projections[1:], [
            np.asarray(sp.spectral_family(x, ctx).projections[1:])
            for x in members])
        assert not fam.projections[0].any()
        if a is signed:
            continue
        for mesh in (None, *vf.MESHES):
            sums = sp.reconstruct(fam, mesh)
            for i, x in enumerate(members):
                assert same_bits(sums[i], sp.reconstruct(
                    sp.spectral_family(x, ctx), mesh))


@pytest.mark.parametrize("model,n,k", CASES)
def test_sign_and_comparability_witnesses_of_stacks(model, n, k):
    """Each member's sign witnesses head the stacked list with the bits of
    its own call, the rest repeating its own; its comparability witness
    and tie flag are those of the pair on its own, ties included."""
    ctx, smp, effects, signed = cluster_stacks(model, n, k)
    stacked = sp.sign_witness_projections(signed, ctx)
    for i in range(k):
        own = sp.sign_witness_projections(signed[i], ctx)
        assert len(own) <= len(stacked) <= sp.WITNESS_LIMIT
        for j, q in enumerate(stacked):
            if j < len(own):
                assert same_bits(q[i], own[j])
            else:
                assert any(same_bits(q[i], x) for x in own)
    e, f = smp.draws(range(k), lambda i: smp.commuting())
    tie = effects[1]
    pairs = [(e, f), (tie, tie)]
    if model == "mv":  # any two elements commute
        pairs.append((effects[4], tie))
    for x, y in pairs:
        wit = sp.comparability_witness(x, y, ctx)
        assert wit.degenerate.shape == (k,)
        for i in range(k):
            one = sp.comparability_witness(x[i], y[i], ctx)
            assert same_bits(wit.p[i], one.p)
            assert type(one.degenerate) is bool
            assert wit.degenerate[i] == one.degenerate
    assert sp.comparability_witness(tie, tie, ctx).degenerate.all()
