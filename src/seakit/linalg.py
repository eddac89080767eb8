"""Eigensystems of complex Hermitian matrices, with eigenvalue clustering.

Every decomposition goes through LAPACK (``numpy.linalg.eigh``) and is then
sorted and clustered in one place, ``decomposition_from``.  With the same
numpy and LAPACK build, identical input gives identical output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    return (m + m.conj().T) / 2.0


def require_hermitian(m: np.ndarray, rel: float = 1e-10) -> np.ndarray:
    """Validate Hermitian symmetry and return the symmetrized matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotHermitianError("matrix has non-finite entries")
    scale = max(1.0, frobenius(m))
    defect = frobenius(m - m.conj().T)
    if defect > rel * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*|| = {defect:.3e}"
        )
    return hermitian_part(m)


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


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigensystem of a Hermitian matrix with eigenvalue clustering.

    values   : eigenvalues sorted ascending
    vectors  : unitary matrix whose columns are the matching eigenvectors
    clusters : index runs of eigenvalues closer than the clustering width
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.values)

    def projector(self, k: int) -> np.ndarray:
        cols = self.vectors[:, list(self.clusters[k])]
        return hermitian_part(cols @ cols.conj().T)

    def projectors(self) -> list[np.ndarray]:
        return [self.projector(k) for k in range(len(self.clusters))]

    def cluster_values(self) -> np.ndarray:
        return np.array([float(np.mean(self.values[list(idx)]))
                         for idx in self.clusters])

    def reconstruct(self) -> np.ndarray:
        return hermitian_part((self.vectors * self.values) @ self.vectors.conj().T)

    def apply(self, fn) -> np.ndarray:
        """Matrix function through the spectral theorem: Q fn(L) Q*."""
        vals = fn(self.values)
        return hermitian_part((self.vectors * vals) @ self.vectors.conj().T)


def decomposition_from(values: np.ndarray, vectors: np.ndarray,
                       tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Build an EigenDecomposition from a known eigensystem, sorting it."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = np.asarray(vectors, dtype=np.complex128)[:, order]
    top = float(np.max(np.abs(values))) if len(values) else 1.0
    width = tol.cluster * max(1.0, top)
    return EigenDecomposition(values, vectors, cluster_indices(values, width))


def eigh(a: np.ndarray, tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Full eigensystem of a Hermitian matrix via LAPACK."""
    values, vectors = np.linalg.eigh(require_hermitian(a))
    return decomposition_from(values, vectors, tol)


def operator_norm(a: np.ndarray, tol: Tolerances = DEFAULT) -> float:
    vals = eigh(a, tol).values
    return float(max(abs(vals[0]), abs(vals[-1]))) if len(vals) else 0.0
