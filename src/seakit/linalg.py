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
``EigenDecomposition`` groups the values of every member into clusters at
once, each against its own width, and builds their values and
eigenprojections on first use and once.  One routine does this work:
``Runs`` lists the runs (clusters) of all members, and what is computed
per run (a mean, a projection ``cols @ cols*``) is computed for the runs
of one size together, with the bits of one call per run.  The clusters of
a stack come cluster first, ``(K, ...)`` for the largest count K, and a
member with fewer repeats its last value there, with a zero projection;
``Runs.own`` (``EigenDecomposition.own``) marks each member's own
clusters, and is the one place that knows which entries are padding.
``decomposition_from`` wraps a known eigensystem, sorting it only when it
is not already ascending.  With the same numpy and LAPACK build, identical
input gives identical output.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .config import DEFAULT, Tolerances

HERMITIAN_REL = 1e-10  # the defect ||M - M*|| allowed, per max(1, ||M||)


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


class NotCommutingError(ValueError):
    """Operation requires a commuting pair."""


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
    if not np.all(np.isfinite(m)):
        raise NotHermitianError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        h = hermitian_part(m)
    if not np.all(np.isfinite(h)):
        raise NotHermitianError("matrix entries overflow when symmetrized")
    top = float(np.max(np.abs([m.real, m.imag]), initial=1.0))
    u = m / top  # parts in [-1, 1], so no norm below overflows to inf
    defect = frobenius(u - u.conj().T)
    if defect > HERMITIAN_REL * max(1.0 / top, frobenius(u)):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*|| = {defect * top:.3e}")
    return h


class Runs:
    """The runs of columns of a mask ``(..., n)`` that is true at each
    run's first column, for every member at once.

    The runs are listed member by member, in column order: ``member`` (the
    flat index of the member), ``start`` and ``size``.  Built on first
    use: ``index`` (the run's place among its member's runs), ``counts``
    (each member's number of runs, on the leading axes of the mask) and
    ``own``.  What is computed per run
    is computed for the runs of one size together.
    """

    def __init__(self, starts: np.ndarray):
        self.lead = starts.shape[:-1]
        self._starts = starts.reshape(-1, starts.shape[-1])
        # a member's first column starts a run, so each run ends where
        # the next one, or the stack, starts
        at = self._starts.ravel().nonzero()[0]
        self.member, self.start = np.divmod(at, starts.shape[-1])
        stop = np.empty_like(at)
        stop[:-1], stop[-1:] = at[1:], self._starts.size
        self.size = stop - at

    @cached_property
    def counts(self) -> np.ndarray:
        return np.bincount(self.member, minlength=len(self._starts)
                           ).reshape(self.lead)

    @cached_property
    def index(self) -> np.ndarray:
        count = self.counts.reshape(-1)
        return np.arange(len(self.member)) - (count.cumsum()
                                              - count)[self.member]

    @cached_property
    def own(self) -> np.ndarray:
        """Which entries of a ``(K, *lead)`` array laid out as ``padded``
        and ``projections`` lay it are each member's own runs, not padding:
        all of them for one member."""
        count = self.counts
        return _frozen(np.arange(int(count.max(initial=0))).reshape(
            -1, *(1,) * count.ndim) < count)

    def means(self, values: np.ndarray) -> np.ndarray:
        """The mean of each run's values in a flat ``(M, n)`` array, one
        per run: a singleton's value as it is (x / 1 is exact), and a
        longer run's as ``numpy.mean`` finds it (its sum, then one
        division), the runs of one size together."""
        out = values[self.member, self.start]
        for m in sorted(set(self.size.tolist()) - {1}):
            pick = self.size == m
            out[pick] = np.add.reduce(values[run_index(
                self.member[pick], self.start[pick], m)], axis=-1) / m
        return out

    def padded(self, per_run: np.ndarray) -> np.ndarray:
        """A value per run as a ``(K, *lead)`` array, K the largest count:
        each member's runs in order, its last run's value repeated after
        them."""
        if not self.lead:  # one member: its runs, in order
            return per_run
        count = self.counts.reshape(-1)
        top = int(count.max(initial=0))
        if len(per_run) == top * len(count):  # every member has K runs
            return per_run.reshape(len(count), top).T.reshape(top, *self.lead)
        dense = np.empty((top, len(count)), dtype=per_run.dtype)
        dense[self.index, self.member] = per_run
        last = np.minimum(np.arange(top)[:, None], count - 1)
        return dense[last, np.arange(len(count))].reshape(top, *self.lead)

    def projections(self, vectors: np.ndarray) -> np.ndarray:
        """The projection onto each run's columns of the unitaries of a
        flat ``(M, n, n)`` stack, as a ``(K, *lead, n, n)`` array in run
        order, zero past each member's last run."""
        per_run = run_projections(vectors, self.member, self.start,
                                  self.size)
        if not self.lead:  # one member: its runs, in order
            return per_run
        n = vectors.shape[-1]
        count = self.counts.reshape(-1)
        out = np.zeros((int(count.max(initial=0)), len(count), n, n),
                       dtype=np.complex128)
        out[self.index, self.member] = per_run
        return out.reshape(len(out), *self.lead, n, n)


def run_index(member: np.ndarray, start: np.ndarray, m: int,
              rows: int | None = None) -> tuple:
    """The index of columns start:start+m of member ``member`` of a flat
    stack, one run of m columns per entry: of vectors ``(M, n)``, or with
    ``rows`` of matrices ``(M, rows, n)``."""
    cols = start[:, None] + np.arange(m)
    if rows is None:
        return member[:, None], cols
    return member[:, None, None], np.arange(rows)[None, :, None], \
        cols[:, None, :]


def run_projections(vectors: np.ndarray, member: np.ndarray,
                    start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The projection onto columns start:start+size of the unitary
    vectors[member], one per entry of the index arrays, from a flat
    ``(M, n, n)`` stack: one stacked ``cols @ cols*`` per run size, with
    the bits of one product per run, and zero for an empty run."""
    n = vectors.shape[-1]
    out = np.zeros((len(start), n, n), dtype=np.complex128)
    for m in sorted(set(size.tolist()) - {0}):
        pick = size == m
        cols = vectors[run_index(member[pick], start[pick], m, n)]
        out[pick] = hermitian_part(cols @ cols.conj().swapaxes(-1, -2))
    return out


def cluster_starts(values: np.ndarray, width) -> np.ndarray:
    """Where the clusters of ascending values start: at the first value,
    and where the gap to the previous one exceeds the width (one width
    per member of a stack)."""
    starts = np.ones(np.shape(values), dtype=bool)
    starts[..., 1:] = (values[..., 1:] - values[..., :-1]
                       > np.asarray(width)[..., None])
    return starts


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EigenDecomposition:
    """Eigensystem of a Hermitian matrix with eigenvalue clustering, or the
    eigensystems of a stack of them.

    values   : eigenvalues sorted ascending (read-only)
    vectors  : unitary matrix whose columns are the matching eigenvectors
               (read-only; decompositions of commuting elements share it)
    tol      : sets the clustering width, tol.cluster * max(1, |values|),
               and the kernel bounds ±tol.kernel, which no cluster spans

    The eigensystems of a stack carry its leading axes on both arrays;
    ``reconstruct`` and ``apply`` work on them member by member, and
    indexing gives a member's (or a sub-stack's) eigensystem.  The
    clusters are found for all members at once, each against its own
    width, on first use and once: their mean values and their projectors
    come cluster first, ``cluster_values[j]`` and ``projectors[j]`` being
    cluster j of every member.  A member with fewer clusters than the
    most repeats its last value there, with a zero projector, and ``own``
    marks each member's own clusters.  The arrays handed out are
    read-only.
    """

    def __init__(self, values: np.ndarray, vectors: np.ndarray,
                 tol: Tolerances):
        self.values = _frozen(values)
        self.vectors = _frozen(vectors)
        self.tol = tol

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    @cached_property
    def runs(self) -> Runs:
        """The clusters: runs of eigenvalues closer than each member's
        clustering width, none across -tol.kernel or tol.kernel, so that
        every value of a cluster has the sign its mean has (negative,
        zero within tol.kernel, or positive) whatever the width."""
        values, kernel = self.values, self.tol.kernel
        top = np.abs(values).max(axis=-1)
        starts = cluster_starts(values,
                                self.tol.cluster * np.maximum(1.0, top))
        sign = (values >= -kernel).astype(np.int8) + (values > kernel)
        starts[..., 1:] |= sign[..., 1:] != sign[..., :-1]
        return Runs(starts)

    @property
    def own(self) -> np.ndarray:
        """Which clusters, cluster first, are each member's own."""
        return self.runs.own

    @cached_property
    def projectors(self) -> np.ndarray:
        """The eigenprojection of each cluster, in cluster order."""
        return _frozen(self.runs.projections(
            self.vectors.reshape(-1, self.dim, self.dim)))

    @cached_property
    def cluster_values(self) -> np.ndarray:
        """The mean eigenvalue of each cluster, ascending (``numpy.mean``
        of the cluster's values; a singleton's is its value, as x / 1 is
        exact)."""
        runs = self.runs
        return _frozen(runs.padded(runs.means(
            self.values.reshape(-1, self.dim))))

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
