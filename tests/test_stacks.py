"""Stacks of elements: the order, norm and spectral verbs on a leading axis.

On both models a stack (``(k, n, n)`` matrices, ``(k, n)`` value arrays)
must give, member by member, the same bits as one call per member; one
element is the stack without the leading axis.  ``powers`` returns one
array, and on matrices it must equal the chained products it replaced;
so must the staircases of an array of levels.  A stack of draws must
give each sample the bits that the same draws give it in runs of other
sizes, each run on a fresh sampler, and keep the draw's law.  The element
verbs and the verifier's residual and tally take stacks with the bits and
counts of one call per member.
"""
import math
import warnings

import numpy as np
import pytest

from seakit.config import DEFAULT
from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit import sampling as sm
from seakit import spectral as sp
from seakit import verify as vf
from seakit.linalg import (
    decomposition_from,
    frobenius,
    hermitian_part,
    per_member,
)

MODELS = {
    "matrix": (mx.MatrixContext(), lambda seed, n: sm.EffectSampler(seed, n)),
    "mv": (fz.FuzzyContext(), lambda seed, n: sm.FuzzySampler(seed, n)),
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
    effects = ctx.raw(smp.effect(range(k)))
    signed = smp.signed(range(k))
    return ctx, smp, effects, signed


@pytest.mark.parametrize("model,n,k", CASES)
def test_reductions_on_a_stack_equal_the_member_calls(model, n, k):
    ctx, smp, effects, signed = draws(model, n, k)
    one = ctx.raw(smp.effect(range(1)))[0]
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
        for a in (smp.effect(range(1))[0], smp.with_top(range(1), 1)[0],
                  smp.projection(range(1))[0]):
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
            ctx.powers(smp.effect(range(1))[0], 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_functions_of_a_stack_equal_the_member_calls(n):
    """``apply`` with a function axis after the stack's (one row per
    function) gives each member and each function the bits of one call
    on the member alone, and so do the ``powers`` of a stack."""
    ctx, _ = MODELS["matrix"]
    a = sm.EffectSampler(30 + n, n).effect(range(5))
    d = a.decomposition

    def rows(x):
        return np.stack([np.sqrt(np.clip(x, 0.0, 1.0)), x * x, 1.0 - x],
                        axis=-2)

    funcs = d.apply(rows)
    powers = ctx.powers(a, 6)
    assert funcs.shape == (5, 3, n, n) and powers.shape == (5, 6, n, n)
    for i in range(5):
        assert same_bits(funcs[i], d[i].apply(rows))
        for j in range(3):
            assert same_bits(funcs[i, j], d[i].apply(lambda x: rows(x)[j]))
        assert same_bits(powers[i], ctx.powers(a[i], 6))


def test_one_lapack_call_decomposes_a_stack(call_counter):
    ctx = mx.MatrixContext()
    smp = sm.EffectSampler(5, 4)
    stack = smp.signed(range(6))
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
    a, b = (x[0] for x in smp.commuting(range(1)))
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
    for a in (x[0] for x in (smp.effect(range(1)), smp.simple(range(1)),
                             smp.projection(range(1)),
                             smp.with_top(range(1), 1))):
        shape = np.shape(ctx.raw(a))
        stairs = sp.simple_approximation(a, levels, ctx)
        assert stairs.shape == (len(levels), *shape)
        for level, step in zip(levels, stairs):
            assert same_bits(step, looped_staircase(a, int(level), ctx))
        one = sp.simple_approximation(a, 3, ctx)
        assert same_bits(one, looped_staircase(a, 3, ctx))
    with pytest.raises(ValueError):
        sp.simple_approximation(a, np.array([2, 0]), ctx)


def commuting_with(smp, ks):
    p = smp.projection(ks)
    return (p, smp.commuting_with(ks, p, on=1.0),
            smp.commuting_with(ks, p, off=0.0), smp.commuting_with(ks, p))


# Each draw kind as a recipe ``(sampler, ks) -> draws``; a parameter that
# differs by sample is an array over ks.
RECIPES = {
    "frame": lambda smp, ks: smp.frame(ks),
    "span": lambda smp, ks: smp.span(smp.frame(ks), 0, ks % (smp.dim + 1)),
    "commuting": lambda smp, ks: smp.commuting(ks),
    "commuting_family": lambda smp, ks: smp.commuting(
        ks, smp.projection, smp.effect, smp.projection),
    "effect": lambda smp, ks: smp.effect(ks, 0.25, 0.75),
    "effect_in_frame": lambda smp, ks: smp.effect(ks, frame=smp.frame(ks)),
    "projection": lambda smp, ks: smp.projection(ks),
    "with_values": lambda smp, ks: smp.with_values(
        ks, np.arange(smp.dim)[::-1] / 8.0),
    "simple": lambda smp, ks: smp.simple(ks),
    "signed": lambda smp, ks: smp.signed(ks),
    "with_top": lambda smp, ks: smp.with_top(ks, ks % (smp.dim + 1)),
    "commuting_with": commuting_with,
    # around projections drawn by another sampler
    "commuting_with_fixed": lambda smp, ks: smp.commuting_with(
        ks, type(smp)(99, smp.dim).projection(ks)),
    "split_effect": lambda smp, ks: smp.split_effect(
        ks, smp.frame(ks), 1 + ks % (smp.dim - 1)),
    "orthogonal_pair": lambda smp, ks: smp.orthogonal_pair(ks),
    "summable_pair": lambda smp, ks: smp.summable_pair(ks),
    "refined_commuting": lambda smp, ks: smp.refined_commuting(ks),
    "numbers": lambda smp, ks: (smp.scalar(ks, 0.25, 0.75),
                                smp.integers(ks, 1, smp.dim + 1)),
}
# The range each kind's values keep, where it is not [0, 1].
BOUNDS = {"effect": (0.25, 0.75), "numbers": (0.25, 0.75),
          "signed": (-1.0, 1.0)}


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
    assert isinstance(x, (np.ndarray, np.generic)), type(x)
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


def assert_laws(model, kind, n, draws):
    """The laws of a stack of draws: effect spectra (and mv values) lie in
    the kind's range, mv values are multiples of 2⁻⁸, matrix frames are
    unitary within 1e-12 and mv frames orderings of the points, integers
    lie in [1, n], and projections have ranks 1 to n - 1 (1 at n = 1)."""
    ctx, _ = MODELS[model]
    lo, hi = BOUNDS.get(kind, (0.0, 1.0))
    for x in draws if isinstance(draws, tuple) else (draws,):
        if isinstance(x, mx.Effect):
            values = x.decomposition.values
            assert np.all((lo <= values) & (values <= hi))
            low, high = ctx.extremes(x)
            assert np.all((low >= lo - 1e-12) & (high <= hi + 1e-12))
        elif x.dtype.kind == "i" and kind == "frame":
            assert np.array_equal(np.sort(x, axis=-1),
                                  np.broadcast_to(np.arange(n), x.shape))
        elif x.dtype.kind == "i":
            assert np.all((1 <= x) & (x <= n))
        elif kind == "frame":
            gram = x @ x.conj().swapaxes(-1, -2)
            assert np.max(frobenius(gram - np.eye(n))) <= 1e-12
        elif model == "matrix" and x.ndim == 3:
            low, high = ctx.extremes(x)
            assert np.all((low >= lo - 1e-12) & (high <= hi + 1e-12))
        else:
            assert np.all((lo <= x) & (x <= hi))
            if model == "mv":
                assert np.array_equal(x * 256, np.floor(x * 256))
    if kind == "projection":
        rank = ctx.proj_rank(draws)
        assert np.all((1 <= rank) & (rank <= max(n - 1, 1)))


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("kind", sorted(RECIPES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_block_of_draws_equals_the_looped_draws(model, kind, count):
    """A stack of draws for the samples 0..11 gives each sample the bits
    it gets in the runs [0, count) and [count, 12), and one sample at a
    time, each run on a fresh sampler: every sample reads a fixed slice
    of the stream at each position.  The stack keeps the draw's laws."""
    _, sampler = MODELS[model]
    recipe = RECIPES[kind]
    ks = np.arange(12)
    for n in range(2 if kind == "split_effect" else 1, 9):
        whole = recipe(sampler(n, n), ks)
        assert set(column_sizes(whole)) == {12}
        want = draw_bits([member(whole, k) for k in ks])
        for runs in ([ks[:count], ks[count:]], np.split(ks, 12)):
            got = [member(recipe(sampler(n, n), run), i)
                   for run in runs for i in range(len(run))]
            assert draw_bits(got) == want, (kind, n, len(runs))
        assert_laws(model, kind, n, whole)


@pytest.mark.parametrize("n", range(2, 7))
def test_commuting_with_a_span_drawn_in_the_same_block(n):
    """A span gives ``commuting_with`` its eigensystem, ones on its
    columns, whose count differs by member: with 1 on the span and 1/4
    off it, the draw is p + (1 - p) / 4."""
    ctx = mx.MatrixContext()
    smp = sm.EffectSampler(n, n)
    ks = np.arange(6)
    p = smp.span(smp.frame(ks), 0, 1 + ks % (n - 1))
    a = smp.commuting_with(ks, p, on=1.0, off=0.25)
    assert np.array_equal(ctx.proj_rank(p), 1 + ks % (n - 1))
    want = hermitian_part(0.75 * p.matrix + 0.25 * np.eye(n))
    assert np.max(frobenius(a.matrix - want)) <= 1e-12


def eager_uniforms(seed, k, position, size):
    """Sample k's uniforms at a draw position of the seed's Philox stream,
    made on their own: the stream advanced to the sample's slice."""
    key = np.random.Philox(seed).state["state"]["key"]
    stride = -(-size // 4) * 4
    bits = np.random.Philox(key=key, counter=[0, 0, position, 0])
    bits.advance(k * stride // 4)
    return np.random.Generator(bits).random(stride)[:size]


def eager_ginibre(seed, k, position, n):
    """Sample k's n × n Ginibre matrix at a draw position, by Box-Muller
    from its uniforms."""
    u = eager_uniforms(seed, k, position, 2 * n * n).reshape(2, n, n)
    return np.sqrt(-2.0 * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])


def eager_haar(z):
    """The Haar unitary of one Ginibre matrix through the public
    ``numpy.linalg.qr``, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def eager_effect(seed, n, k):
    """Sample k's effect as ``effect`` draws it, made on its own from the
    seed's Philox stream advanced to the sample's slice: its values from
    the first position, a Ginibre matrix by Box-Muller from the second,
    the Haar unitary of that matrix (QR with the phases of R's diagonal
    moved into Q), then the stably sorted reconstruct; the matrix, values
    and vectors."""
    values = eager_uniforms(seed, k, 0, n)
    frame = eager_haar(eager_ginibre(seed, k, 1, n))
    order = np.argsort(values, kind="stable")
    values, vectors = values[order], frame[:, order]
    return hermitian_part((vectors * values) @ vectors.conj().T), values, \
        vectors


@pytest.mark.parametrize("n", range(1, 9))
def test_a_block_of_effects_equals_the_eager_construction(n):
    for count in (1, 5, 12):
        smp = sm.EffectSampler(n, n)
        for k, effect in enumerate(smp.effect(range(count))):
            d = effect.decomposition
            assert draw_bits([effect.matrix, d.values, d.vectors]) == \
                draw_bits(list(eager_effect(n, n, k)))


@pytest.mark.parametrize("n", range(1, 9))
def test_a_block_of_block_diagonal_frames_equals_the_eager_construction(n):
    """The unitaries ``split_effect`` and ``refined_commuting`` refine
    their frames by, drawn first on a fresh sampler, against sample k's
    own: its Ginibre matrix zeroed off the blocks of equal labels, through
    ``numpy.linalg.qr`` with R's phases moved into Q.  Labels split the
    columns after k mod (n + 1) of them, as ``split_effect``'s do, or
    into up to three ascending runs, as ``refined_commuting``'s do."""
    for count in (1, 5, 12):
        ks = np.arange(count)
        cols = np.arange(n)
        for labels in (cols >= (ks % (n + 1))[:, None],
                       np.sort((cols * (ks[:, None] + 1)) % 3, axis=-1)):
            blocks = sm.EffectSampler(n, n)._blocks(ks, labels)
            for k in range(count):
                same = labels[k][:, None] == labels[k][None, :]
                want = eager_haar(eager_ginibre(n, k, 0, n) * same)
                assert draw_bits(blocks[k]) == draw_bits(want)


def test_a_block_takes_one_qr_per_frame_size(call_counter):
    """A stack of draws takes one QR call per frame it draws, whatever
    the number of samples: one for a commuting family, one for an effect
    in a fresh frame, and one for a split effect's block-diagonal
    refinement of its frame; numbers take none.  The count is taken at
    ``qr_r_raw``, the factorization that ``_haar`` calls as
    ``numpy.linalg.qr`` does."""
    calls = call_counter("numpy.linalg._umath_linalg.qr_r_raw")
    for count in (1, 12):
        smp = sm.EffectSampler(3, 4)
        ks = np.arange(count)
        before = calls.count
        smp.commuting(ks)
        smp.effect(ks)
        smp.split_effect(ks, smp.frame(ks), 1)
        assert calls.count - before == 4
        smp.orthogonal_pair(ks)
        assert calls.count - before == 5
        assert len(smp.scalar(ks)) == len(smp.integers(ks, 0, 4)) == count
        assert calls.count - before == 5


@pytest.mark.parametrize("model,n,k", CASES)
def test_element_verbs_on_a_stack_equal_the_member_calls(model, n, k):
    """product, scale (one λ per member), complement, element and
    is_sharp of stacks, against one call per member; on matrices the
    eigensystems a scaled or complemented stack keeps, too."""
    ctx, sampler = MODELS[model]
    smp = sampler(n + 10 * k, n)
    ks = range(k)
    a, b = smp.effect(ks), smp.effect(ks)
    lam, p = smp.scalar(ks), smp.projection(ks)
    raw = ctx.raw
    products = ctx.product(a, b)
    scaled = ctx.scale(lam, a)
    scaled_raw = ctx.scale(lam, raw(b))
    complements = ctx.complement(a)
    elements = ctx.element(ctx.add(a, b))
    sharp = np.concatenate([ctx.is_sharp(a), ctx.is_sharp(p)])
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
    residual (the 2-norm over the size) is one per row, with the bits of
    the row on its own."""
    ctx = fz.FuzzyContext()
    rng = np.random.default_rng(size)
    a, b = rng.uniform(0.0, 1.0, (2, 4, size))
    run = vf._Run(ctx, None, n=size)
    got, norms = run.res(a, b), frobenius(a - b, 1)
    assert got.shape == norms.shape == (4,)
    for i in range(4):
        assert norms[i].hex() == float(np.linalg.norm(a[i] - b[i])).hex()
        assert got[i].hex() == run.res(a[i], b[i]).hex()


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
    """A sampler whose stacks of effects are given up front, handed out
    in order."""

    def __init__(self, *stacks):
        self.stacks = list(stacks)

    def effect(self, ks):
        return self.stacks.pop(0)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_premise_mask_skips_its_members_without_warnings(model):
    """de:strongarch divides by the least eigenvalue of b - a where its
    premise holds; members with b = a fail the premise, and their zero
    must not reach the division."""
    ctx, sampler = MODELS[model]
    smp = sampler(4, 3)
    ks = np.arange(6)
    a = smp.effect(ks)
    b = ctx.where(ks % 2 == 0, a, smp.effect(ks))
    run = vf._Run(ctx, None, n=3, samples=6)
    t = vf._Tally()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vf._strongarch(run, ctx, GivenDraws(a, b), ks, t)
    assert (t.samples, t.passed, t.witness) == (6, 6, None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_meet_and_join_of_stacks_equal_the_member_calls(n):
    """a - (a - b)⁺ and b + (a - b)⁺ of a stack's pairs, with one stacked
    eigh of the differences, give each member's meet and join the bits of
    the pair on its own; raw stacks too."""
    ctx = mx.MatrixContext()
    smp = sm.EffectSampler(n, n)
    ks = np.arange(9)
    u = smp.frame(ks)
    p = ctx.where(ks % 3 != 0, smp.projection(ks, frame=u),
                  smp.effect(ks, frame=u))
    a = smp.effect(ks, frame=u)
    for first in (p, ctx.raw(p)):
        meets, joins = ctx.meet(first, a), ctx.join(first, a)
        for i in range(9):
            member = first[i]
            assert same_bits(meets[i], ctx.meet(member, a[i]))
            assert same_bits(joins[i], ctx.join(member, a[i]))
    if n > 1:
        with pytest.raises(mx.NotCommutingError):
            ctx.meet(p, smp.effect(ks))


def cluster_stacks(model, n, k):
    """Stacks of k elements with generic spectra, repeated eigenvalues
    (levels, a top cluster, simple draws, a projection) and the signed
    elements with exact kernels, drawn on model with dimension n."""
    ctx, sampler = MODELS[model]
    smp = sampler(7 * n + k, n)
    levels = np.repeat([0.25, 0.5, 0.75], n)[:n]
    ks = np.arange(k)
    effects = (smp.effect(ks), smp.with_values(ks, np.array(
        [np.roll(levels, i) for i in ks])), smp.with_top(ks, ks % (n + 1)),
        smp.simple(ks), smp.projection(ks))
    signed = smp.signed(ks)
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
    """A stack has two sign witnesses, the least and the greatest, and
    each member's are those of its own call, bit for bit; its
    comparability witness and tie flag are those of the pair on its own,
    ties included."""
    ctx, smp, effects, signed = cluster_stacks(model, n, k)
    stacked = sp.sign_witness_projections(signed, ctx)
    assert len(stacked) == 2
    for i in range(k):
        own = sp.sign_witness_projections(signed[i], ctx)
        assert len(own) == 2
        for q, one in zip(stacked, own):
            assert same_bits(q[i], one)
    e, f = smp.commuting(range(k))
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
