"""Matrix effects and their context: products, compressions, covers,
floors, samplers.

Diagonal fixtures act entrywise on eigenvalues, so every expected value
below is derivable by hand.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seakit.config import DEFAULT
from seakit.linalg import (
    DimensionMismatchError,
    NotHermitianError,
    frobenius,
    hermitian_part,
)
from seakit.matrices import (
    Effect,
    MatrixContext,
    NotAnEffectError,
    NotCommutingError,
    validate_effect,
)
from seakit.sampling import EffectSampler

CTX = MatrixContext()


def diag(*values):
    return np.diag(np.array(values, dtype=float))


def test_validate_accepts_and_rejects():
    eff = validate_effect(diag(0.2, 0.7))
    assert eff.dim == 2
    with pytest.raises(NotAnEffectError) as info:
        validate_effect(diag(1.5, 0.2))
    assert info.value.eigenvalue == pytest.approx(1.5)
    with pytest.raises(NotAnEffectError) as info:
        validate_effect(diag(-0.3, 0.2))
    assert info.value.eigenvalue == pytest.approx(-0.3)
    with pytest.raises(NotHermitianError):
        validate_effect(np.array([[0.2, 0.5], [0.0, 0.4]]))


def test_square_root_and_complement():
    eff = validate_effect(diag(0.25, 1.0))
    assert np.allclose(eff.sqrt_matrix(), diag(0.5, 1.0), atol=1e-10)
    assert np.allclose(eff.complement().matrix, diag(0.75, 0.0), atol=1e-12)


def test_sequential_product_against_hand_values():
    p = validate_effect(diag(1.0, 0.0))
    a = validate_effect(np.full((2, 2), 0.5))
    assert np.allclose(CTX.product(p, a), [[0.5, 0.0], [0.0, 0.0]],
                       atol=1e-10)
    prod = CTX.product(validate_effect(diag(0.2, 0.7)),
                       validate_effect(diag(0.5, 0.4)))
    assert np.allclose(prod, diag(0.1, 0.28), atol=1e-10)
    # a raw operand is checked as an effect
    with pytest.raises(NotAnEffectError):
        CTX.product(diag(1.5, 0.2), p)


def test_unit_is_neutral_for_the_product():
    one = validate_effect(np.eye(3))
    a = validate_effect(diag(0.1, 0.4, 0.9))
    assert np.allclose(CTX.product(one, a), a.matrix, atol=1e-10)
    assert np.allclose(CTX.product(a, one), a.matrix, atol=1e-10)


def test_compression_is_corner():
    p = validate_effect(diag(1.0, 0.0))
    a = validate_effect(np.full((2, 2), 0.5))
    assert np.allclose(CTX.compress(p, a), [[0.5, 0.0], [0.0, 0.0]],
                       atol=1e-12)


def test_rickart_is_kernel_projection():
    q = CTX.rickart(diag(0.0, 0.3, -0.2))
    assert np.allclose(q, diag(1.0, 0.0, 0.0), atol=1e-10)
    assert CTX.proj_rank(CTX.rickart(np.zeros((2, 2)))) == 2


def test_cover_and_floor():
    cover = CTX.cover(validate_effect(diag(0.2, 0.0, 0.7)))
    assert np.allclose(cover.matrix, diag(1.0, 0.0, 1.0), atol=1e-10)
    base = CTX.floor(validate_effect(diag(1.0, 1.0, 0.5)))
    assert np.allclose(base.matrix, diag(1.0, 1.0, 0.0), atol=1e-10)
    assert CTX.proj_rank(CTX.floor(diag(0.4, 0.9))) == 0
    with pytest.raises(NotAnEffectError):
        CTX.cover(diag(-0.3, 0.2))
    with pytest.raises(NotAnEffectError):
        CTX.floor(diag(1.5, 0.2))


def test_powers_are_sequential_powers():
    steps = CTX.powers(validate_effect(diag(1.0, 0.5)), 4)
    assert len(steps) == 4
    for k, step in enumerate(steps, start=1):
        assert np.allclose(step, diag(1.0, 0.5 ** k), atol=1e-10)
    with pytest.raises(ValueError):
        CTX.powers(steps[0], 0)


def test_order_and_positivity_helpers():
    assert CTX.extremes(diag(0.3, -0.2)) == pytest.approx((-0.2, 0.3))
    leq = CTX.leq
    assert leq(np.zeros((2, 2)), diag(0.0, 0.1))
    assert not leq(np.zeros((2, 2)), diag(-1e-3, 0.1))
    loose = MatrixContext(DEFAULT.replace(check=1e-2))
    assert loose.leq(np.zeros((2, 2)), diag(-1e-3, 0.1))
    assert leq(validate_effect(diag(0.2, 0.3)), validate_effect(diag(0.2, 0.9)))
    assert not leq(validate_effect(diag(0.5, 0.3)),
                   validate_effect(diag(0.2, 0.9)))


def test_meet_and_join_of_commuting_projections():
    p = validate_effect(diag(1.0, 1.0, 0.0))
    q = validate_effect(diag(0.0, 1.0, 1.0))
    assert np.allclose(CTX.meet(p, q), diag(0.0, 1.0, 0.0), atol=1e-10)
    assert np.allclose(CTX.join(p, q), diag(1.0, 1.0, 1.0), atol=1e-10)


def test_meet_and_join_require_a_commuting_pair_of_one_size():
    a = validate_effect(np.array([[0.5, 0.1], [0.1, 0.5]]))
    b = validate_effect(diag(0.3, 0.8))
    small, large = np.stack([diag(0.2, 0.7)] * 2), np.stack([np.eye(3)] * 2)
    for verb in (CTX.meet, CTX.join):
        with pytest.raises(NotCommutingError):
            verb(a, b)
        with pytest.raises(NotCommutingError):
            verb(np.stack([a.matrix, b.matrix]), np.stack([b.matrix] * 2))
        with pytest.raises(DimensionMismatchError):
            verb(b, validate_effect(np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            verb(small, large)


@pytest.mark.parametrize("width", [0.0, DEFAULT.cluster, 2.0])
@pytest.mark.parametrize("n", range(1, 7))
def test_meet_and_join_are_the_pointwise_ones_in_a_common_basis(n, width):
    """U diag(f) U* and U diag(g) U* with U Haar and f, g on a grid of five
    values, so ties occur within and across the pair: their meet and join
    are U diag(min(f, g)) U* and U diag(max(f, g)) U* at any clustering
    width, which a - (a - b)⁺ and b + (a - b)⁺ never read."""
    ctx = MatrixContext(DEFAULT.replace(cluster=width))
    rng = np.random.default_rng(100 + n)
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    for _ in range(10):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        f, g = rng.choice(grid, n), rng.choice(grid, n)

        def conj(values):
            return hermitian_part((u * values) @ u.conj().T)

        a, b = conj(f), conj(g)
        for x, y in ((a, b), (validate_effect(a, ctx.tol), b)):
            assert np.max(np.abs(ctx.meet(x, y) - conj(np.minimum(f, g)))) \
                <= 1e-12
            assert np.max(np.abs(ctx.join(x, y) - conj(np.maximum(f, g)))) \
                <= 1e-12


def test_scalar_action_bounds():
    a = validate_effect(diag(0.4, 0.8))
    assert np.allclose(CTX.scale(0.5, a).matrix, diag(0.2, 0.4),
                       atol=1e-12)
    with pytest.raises(ValueError):
        CTX.scale(1.5, a)
    with pytest.raises(ValueError):
        CTX.scale(-0.1, a)


def test_sampler_is_reproducible():
    one = EffectSampler(11, 3)
    two = EffectSampler(11, 3)
    ks = range(3)
    assert np.array_equal(one.effect(ks).matrix, two.effect(ks).matrix)
    assert np.array_equal(one.projection(ks).matrix,
                          two.projection(ks).matrix)
    for n in (1, 2, 8):
        for q in EffectSampler(11, n).frame(ks):
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-12


def test_sampler_products_stay_effects():
    sampler = EffectSampler(5, 4)
    a, b = sampler.effect(range(20)), sampler.effect(range(20))
    vals = CTX.element(CTX.product(a, b)).decomposition.values
    assert np.all(vals[:, 0] >= -1e-9) and np.all(vals[:, -1] <= 1.0 + 1e-9)


def test_sampler_commuting_and_orthogonal_constructions():
    sampler = EffectSampler(7, 4)
    a, b = sampler.commuting(range(5))
    assert np.all(frobenius(a.matrix @ b.matrix - b.matrix @ a.matrix)
                  <= 1e-9)
    p, q = sampler.orthogonal_pair(range(5))
    assert np.all(frobenius(p.matrix @ q.matrix) <= 1e-9)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=5))
def test_floor_below_effect_below_cover(seed, dim):
    a = EffectSampler(seed, dim).effect(range(1))[0]
    low = CTX.floor(a)
    high = CTX.cover(a)
    assert CTX.leq(low, a)
    assert CTX.leq(a, high)
    # the cover compresses a to itself
    assert frobenius(CTX.compress(high, a) - a.matrix) <= 1e-8


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_product_with_complement_vanishes_iff_sharp(seed):
    sampler = EffectSampler(seed, 3)
    p = sampler.projection(range(1))[0]
    gap = CTX.product(p, p.complement())
    assert frobenius(gap) <= 1e-9


def test_rickart_of_an_array_trusts_it(call_counter):
    """The step the verifier's definitional family takes per spectral
    value, on a raw, exactly Hermitian array: one ``eigh`` for the
    positive part and one for its kernel, and nothing checks or
    symmetrizes the array again.  An array from outside the program is
    checked where it enters, by ``validate_effect``."""
    u = EffectSampler(3, 4).frame(range(1))[0]
    x = hermitian_part((u * np.array([-0.5, -0.2, 0.3, 0.7])) @ u.conj().T)
    calls = call_counter("numpy.linalg.eigh",
                         "seakit.linalg.require_hermitian",
                         "seakit.linalg.hermitian_part")
    kernel = CTX.rickart(CTX.positive_part(x))
    assert CTX.proj_rank(kernel) == 2
    assert calls["numpy.linalg.eigh"] == 2
    assert calls["seakit.linalg.require_hermitian"] == 0
    assert calls["seakit.linalg.hermitian_part"] == 2
    with pytest.raises(NotHermitianError):
        validate_effect(np.array([[0.5, 0.2], [0.0, 0.5]]))
