"""Eigensystems of complex Hermitian matrices, with eigenvalue clustering.

Every eigensystem comes from ``eigh`` (over ``numpy.linalg.eigh``), whose
operand must be finite and exactly Hermitian: ``require_hermitian`` makes
a matrix from outside so.  ``eigenvalues`` is its values-only accessor.
Both take a stack of matrices on leading axes, as numpy's gufuncs do: one
LAPACK call decomposes a ``(k, n, n)`` stack, member by member, with the
same bits as ``k`` calls on the members; one matrix is the stack without
the leading axis.  ``hermitian_part``, ``operator_norm``, ``frobenius``,
``decomposition_from`` and ``EigenDecomposition.apply`` work on stacks
too, and an ``EigenDecomposition`` of a stack is indexed for a member's;
``per_member`` turns a reduction over one element into a Python scalar.
Clustering happens only where eigenvectors are needed: an
``EigenDecomposition`` of one matrix groups its values into clusters, and
builds its cluster values and eigenprojections, on first use and once.
``decomposition_from`` wraps a known eigensystem, sorting it only when it
is not already ascending.  With the same numpy and LAPACK build, identical
input gives identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances

HERMITIAN_REL = 1e-10  # the defect ||M - M*|| allowed, per max(1, ||M||)


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def frobenius(m: np.ndarray, ndim: int = 2):
    """The Frobenius norm of one element spanning the last ``ndim`` axes
    (a matrix, or with ``ndim=1`` a vector), a float, or of each member of
    a stack of them, with the bits of one ``numpy.linalg.norm`` call per
    member."""
    m = np.asarray(m)
    if m.ndim <= ndim:  # numpy.linalg.norm's own steps, without its checks
        flat = m.ravel(order="K")
        if flat.dtype.kind == "c":
            return math.sqrt(flat.real.dot(flat.real)
                             + flat.imag.dot(flat.imag))
        if flat.dtype.kind != "f":
            flat = flat.astype(float)
        return math.sqrt(flat.dot(flat))
    lead = m.ndim - ndim
    flat = m.reshape(*m.shape[:lead], math.prod(m.shape[lead:]))
    if not np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat, flat))
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, member by member on a stack."""
    m = np.asarray(m, dtype=np.complex128)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def per_member(x):
    """A reduction's result: a Python scalar for one element (a 0-d
    result), the array of one value per member for a stack."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


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
    first use and kept; the arrays handed out are read-only.  The
    eigensystems of a stack carry its leading axes on both arrays;
    ``reconstruct`` and ``apply`` work on them member by member, indexing
    gives a member's (or a sub-stack's) eigensystem, and the clusters are
    defined for one matrix only.
    """

    values: np.ndarray
    vectors: np.ndarray
    tol: Tolerances

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

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
        """The mean eigenvalue of each cluster, ascending; a singleton's
        is its value, as x / 1 is exact."""
        return _frozen(np.array([
            float(self.values[idx[0]]) if len(idx) == 1
            else float(np.mean(self.values[list(idx)]))
            for idx in self.clusters]))

    def __getitem__(self, index) -> "EigenDecomposition":
        return EigenDecomposition(self.values[index], self.vectors[index],
                                  self.tol)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda x: x)

    def apply(self, fn) -> np.ndarray:
        """Matrix function through the spectral theorem: Q fn(L) Q*.

        fn may return values with more leading axes than it was given,
        say one row per power, for a stack of functions of one matrix in
        its own eigenbasis."""
        vals = fn(self.values)
        return hermitian_part((self.vectors * vals[..., None, :])
                              @ self.vectors.conj().swapaxes(-1, -2))


def decomposition_from(values: np.ndarray, vectors: np.ndarray,
                       tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Build an EigenDecomposition from a known eigensystem, or from the
    eigensystems of a stack, sorting each stably.

    Ascending input is taken as it is, without a copy, so the arrays
    passed in become read-only.
    """
    values = np.asarray(values, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.complex128)
    if not np.all(values[..., 1:] >= values[..., :-1]):
        order = np.argsort(values, axis=-1, kind="stable")
        if values.ndim == 1:
            values, vectors = values[order], vectors[:, order]
        else:
            values = np.take_along_axis(values, order, -1)
            vectors = np.take_along_axis(vectors, order[..., None, :], -1)
    return EigenDecomposition(values, vectors, tol)


def eigh(a: np.ndarray, tol: Tolerances = DEFAULT) -> EigenDecomposition:
    """Full eigensystem of a finite, exactly Hermitian matrix, or of each
    member of a stack, taken as it is, via one LAPACK call, the one
    eigensolver; its values come out ascending."""
    values, vectors = np.linalg.eigh(np.asarray(a, dtype=np.complex128))
    return EigenDecomposition(values, vectors, tol)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an exactly Hermitian matrix, or of each
    member of a stack: the LAPACK call of ``eigh``, with nothing
    clustered."""
    return eigh(a).values


def operator_norm(a: np.ndarray):
    """The largest |eigenvalue|: a float, or one per member of a stack."""
    vals = eigenvalues(a)
    return per_member(np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1])))
