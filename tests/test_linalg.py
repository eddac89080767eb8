"""Eigendecomposition checks against closed forms and the numpy oracle."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seakit.config import DEFAULT
from seakit.linalg import (
    NotHermitianError,
    cluster_indices,
    decomposition_from,
    eigh,
    frobenius,
    operator_norm,
    require_hermitian,
)


def test_symmetric_2x2_closed_form():
    # trace 4, determinant 3: eigenvalues 1 and 3
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    d = eigh(m)
    assert np.allclose(d.values, [1.0, 3.0], atol=1e-12)
    for k in range(2):
        v = d.vectors[:, k]
        assert np.allclose(m @ v, d.values[k] * v, atol=1e-12)
    assert np.allclose(d.reconstruct(), m, atol=1e-12)


def test_complex_2x2_closed_form():
    # (1 - lam)^2 - 1 = 0: eigenvalues 0 and 2
    m = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
    d = eigh(m)
    assert np.allclose(d.values, [0.0, 2.0], atol=1e-12)
    assert np.allclose(d.reconstruct(), m, atol=1e-12)


def test_zero_matrix():
    d = eigh(np.zeros((3, 3)))
    assert np.array_equal(d.values, np.zeros(3))
    assert np.allclose(d.reconstruct(), np.zeros((3, 3)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_matches_numpy_oracle(dim, rng):
    for _ in range(10):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (g + g.conj().T) / 2
        d = eigh(m)
        assert np.allclose(d.values, np.linalg.eigvalsh(m), atol=1e-9)
        assert np.allclose(d.reconstruct(), m, atol=1e-9)
        q = d.vectors
        assert np.allclose(q.conj().T @ q, np.eye(dim), atol=1e-9)


def test_cluster_indices_width():
    values = np.array([0.2, 0.2 + 1e-12, 0.9])
    assert cluster_indices(values, 1e-8) == ((0, 1), (2,))
    assert cluster_indices(values, 1e-14) == ((0,), (1,), (2,))
    assert cluster_indices(np.array([]), 1e-8) == ()


def test_projectors_resolve_identity(rng):
    g = rng.normal(size=(4, 4))
    d = eigh((g + g.T) / 2)
    total = sum(d.projectors)
    assert np.allclose(total, np.eye(4), atol=1e-9)
    for p in d.projectors:
        assert np.allclose(p @ p, p, atol=1e-9)


def test_clustered_projector_rank():
    d = eigh(np.diag([0.2, 0.2, 0.9]))
    assert len(d.clusters) == 2
    assert np.allclose(d.projectors[0], np.diag([1.0, 1.0, 0.0]),
                       atol=1e-12)
    assert np.allclose(d.projectors[1], np.diag([0.0, 0.0, 1.0]),
                       atol=1e-12)
    assert np.allclose(d.cluster_values, [0.2, 0.9])


def test_decompositions_build_read_only_arrays_once():
    d = eigh(np.diag([0.2, 0.2, 0.9]))
    assert d.projectors is d.projectors
    assert d.cluster_values is d.cluster_values
    for arr in (d.values, d.vectors, d.cluster_values, *d.projectors):
        assert not arr.flags.writeable
    # Ascending input is shared, and so frozen; other input is sorted.
    vectors = np.eye(2, dtype=np.complex128)
    shared = decomposition_from(np.array([0.1, 0.5]), vectors)
    assert shared.vectors is vectors and not vectors.flags.writeable
    swapped = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    srt = decomposition_from(np.array([0.5, 0.1]), swapped)
    assert srt.values.tolist() == [0.1, 0.5]
    assert np.array_equal(srt.vectors, np.eye(2))
    assert np.allclose(srt.reconstruct(), np.diag([0.1, 0.5]))


def test_apply_square_root():
    d = eigh(np.diag([0.25, 1.0]))
    assert np.allclose(d.apply(np.sqrt), np.diag([0.5, 1.0]), atol=1e-12)


def test_norms():
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert frobenius(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitianError):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_require_hermitian_rejects_what_is_not_finite_once_symmetrized():
    # 1e308 is finite, but (1e308 + 1e308) / 2 overflows to inf; neither
    # case raises a warning on the way.
    for m in (np.diag([1e308, 1e308]), np.diag([np.nan, 0.5]),
              np.array([[0.5, np.inf], [0.0, 0.5]])):
        with pytest.raises(NotHermitianError, match="non-finite"):
            require_hermitian(m)
    m = np.array([[1e200, 3e199 + 1j], [3e199 - 1j, -1e200]])
    assert np.array_equal(require_hermitian(m), m)


def test_require_hermitian_measures_huge_defects():
    # ||M|| and ||M - M*|| overflow to inf here, yet the symmetrized
    # matrix, 0.5 times the identity, is finite: the defect is measured
    # on M scaled by its largest entry.
    for big in (1e160, 1e308):
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            require_hermitian(np.array([[0.5, big], [-big, 0.5]]))


entries = st.floats(min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


@given(st.lists(entries, min_size=6, max_size=6))
def test_reconstruction_property(xs):
    m = np.array([[xs[0], xs[1], xs[2]],
                  [xs[1], xs[3], xs[4]],
                  [xs[2], xs[4], xs[5]]])
    d = eigh(m)
    assert np.allclose(d.reconstruct(), m, atol=1e-7)
    assert np.all(np.diff(d.values) >= 0)
