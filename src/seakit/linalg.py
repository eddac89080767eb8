"""Eigensystems of complex Hermitian matrices, with eigenvalue clustering.

Every eigensystem comes from one LAPACK call, ``eigh`` (over
``numpy.linalg.eigh``), whose operand must be finite and exactly Hermitian:
``require_hermitian`` makes a matrix from outside so.  ``eigenvalues`` is
its values-only accessor.  Clustering happens only where eigenvectors are
needed: an ``EigenDecomposition`` groups its values into clusters, and
builds its cluster values and eigenprojections, on first use and once.
``decomposition_from`` wraps a known eigensystem, sorting it only when it
is not already ascending.  With the same numpy and LAPACK build, identical
input gives identical output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances

HERMITIAN_REL = 1e-10  # the defect ||M - M*|| allowed, per max(1, ||M||)


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    return (m + m.conj().T) / 2.0


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Check a matrix from outside (square, Hermitian within HERMITIAN_REL,
    finite once symmetrized, overflow refused quietly); return it so."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_part(m)
    if not np.all(np.isfinite(h)):
        raise NotHermitianError("matrix has non-finite entries")
    top = float(np.max(np.abs([m.real, m.imag]), initial=1.0))
    u = m / top  # parts in [-1, 1], so no norm below overflows to inf
    defect = frobenius(u - u.conj().T)
    if defect > HERMITIAN_REL * max(1.0 / top, frobenius(u)):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*|| = {defect * top:.3e}")
    return h


def cluster_indices(values: np.ndarray, width: float) -> tuple[tuple[int, ...], ...]:
    """Group ascending values into runs separated by gaps larger than width."""
    groups: list[tuple[int, ...]] = []
    if len(values) == 0:
        return tuple()
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > width:
            groups.append(tuple(current))
            current = [i]
        else:
            current.append(i)
    groups.append(tuple(current))
    return tuple(groups)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix with eigenvalue clustering.

    values   : eigenvalues sorted ascending (read-only)
    vectors  : unitary matrix whose columns are the matching eigenvectors
               (read-only; decompositions of commuting elements share it)
    tol      : sets the clustering width, tol.cluster * max(1, |values|)

    The clusters, their mean values and their projectors are computed on
    first use and kept; the arrays handed out are read-only.
    """

    values: np.ndarray
    vectors: np.ndarray
    tol: Tolerances

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)

    @property
    def dim(self) -> int:
        return len(self.values)

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Index runs of eigenvalues closer than the clustering width."""
        top = float(np.max(np.abs(self.values))) if len(self.values) else 1.0
        return cluster_indices(self.values, self.tol.cluster * max(1.0, top))

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The eigenprojection of each cluster, in cluster order."""
        out = []
        for idx in self.clusters:
            cols = self.vectors[:, list(idx)]
            out.append(_frozen(hermitian_part(cols @ cols.conj().T)))
        return tuple(out)

    @cached_property
    def cluster_values(self) -> np.ndarray:
        """The mean eigenvalue of each cluster, ascending."""
        return _frozen(np.array([float(np.mean(self.values[list(idx)]))
                                 for idx in self.clusters]))

    def reconstruct(self) -> np.ndarray:
        return hermitian_part((self.vectors * self.values) @ self.vectors.conj().T)

    def apply(self, fn) -> np.ndarray:
        """Matrix function through the spectral theorem: Q fn(L) Q*."""
        vals = fn(self.values)
        return hermitian_part((self.vectors * vals) @ self.vectors.conj().T)


def decomposition_from(values: np.ndarray, vectors: np.ndarray,
                       tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Build an EigenDecomposition from a known eigensystem, sorting it.

    Ascending input is taken as it is, without a copy, so the arrays
    passed in become read-only.
    """
    values = np.asarray(values, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.complex128)
    if not np.all(values[1:] >= values[:-1]):
        order = np.argsort(values, kind="stable")
        values = values[order]
        vectors = vectors[:, order]
    return EigenDecomposition(values, vectors, tol)


def eigh(a: np.ndarray, tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Full eigensystem of a finite, exactly Hermitian matrix, taken as it
    is, via LAPACK, the one eigensolver; its values come out ascending."""
    values, vectors = np.linalg.eigh(np.asarray(a, dtype=np.complex128))
    return EigenDecomposition(values, vectors, tol)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix: the LAPACK
    call of ``eigh``, with nothing clustered."""
    return eigh(a).values


def operator_norm(a: np.ndarray) -> float:
    vals = eigenvalues(a)
    return float(max(abs(vals[0]), abs(vals[-1]))) if len(vals) else 0.0
