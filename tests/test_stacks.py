"""Stacks of elements: the order, norm and spectral verbs on a leading axis.

On both models a stack (``(k, n, n)`` matrices, ``(k, n)`` value arrays)
must give, member by member, the same bits as one call per member; one
element is the stack without the leading axis.  ``powers`` returns one
array, and on matrices it must equal the chained products it replaced.
"""
import numpy as np
import pytest

from seakit import fuzzy as fz
from seakit import matrices as mx
from seakit.linalg import decomposition_from, hermitian_part, per_member

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
        for a, b in ((stack, effects), (one, stack), (stack, one)):
            for slack in (0.0, 0.5):
                got = ctx.leq(a, b, slack)
                assert got.shape == (k,) and got.dtype == bool
                for i in range(k):
                    ai = a if a is one else a[i]
                    bi = b if b is one else b[i]
                    member = ctx.leq(ai, bi, slack)
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
