"""Functions from a finite set into [0,1] with pointwise operations.

The commutative model: partial addition is pointwise sum when it stays
under one, the sequential product is the pointwise product, and order,
meet, and join are pointwise.  ``FuzzyContext`` holds these operations
under the same names as ``matrices.MatrixContext``; its random draws are
``sampling.FuzzySampler``'s.  Arithmetic is exact for dyadic inputs, so
checks in this model compare with threshold zero.

An element is its float array of values.  Values are checked where they
enter the program (``read`` checks the document's shape, the command line
their range); every operation here, and every draw, trusts them.  A
``(k, n)`` array is a stack of k elements: the pointwise operations act
on it member by member, ``scale`` takes one λ per member, and ``leq``,
``extremes``, ``norm``, ``residual`` and ``is_sharp`` reduce over the
last axis, one value per member; ``powers`` returns one
``(..., count, n)`` array.  The level sets (``eigenprojections``) of a
stack come level first, as the matrix model's clusters do.
``spectrum_representation`` maps a matrix effect onto its clusters, one
stack of matrices evaluated on the clusters of one size together.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from . import matrices as mx
from .linalg import (EigenDecomposition, Runs, cluster_starts, frobenius,
                     operator_norm, per_member, run_index)

MAX_SPACE = 1024
# The highest sequential power on which spectrum_representation checks
# the embedding.
EMBEDDING_DEGREE = 6


class FuzzyContext:
    """Spectral context over value vectors; thresholds are exact."""

    model = "fuzzy"
    element_ndim = 1  # the trailing axes one element spans
    mul = staticmethod(np.multiply)   # the ordinary product of raw elements

    # The verbs with one formula on both models, written once there.
    add = mx.MatrixContext.add
    sub = mx.MatrixContext.sub
    residual = mx.MatrixContext.residual
    norm = mx.MatrixContext.norm
    leq = mx.MatrixContext.leq
    is_sharp = mx.MatrixContext.is_sharp
    zero_like = mx.MatrixContext.zero_like
    shift = mx.MatrixContext.shift
    where = mx.MatrixContext.where

    def __init__(self, tol: Tolerances = DEFAULT):
        self.tol = tol.replace(psd=0.0, proj=0.0, cluster=0.0, kernel=0.0,
                               comm=0.0, check=0.0)

    def raw(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float)

    def read(self, doc: dict) -> np.ndarray:
        """The values of an element document: "values" a non-empty list of
        at most ``MAX_SPACE`` numbers, and "space" (optional) its length.
        Raises ValueError on any other shape; the values themselves are
        not checked."""
        vals = doc["values"]
        if not mx.is_number_list(vals) or not vals:
            raise ValueError("values must be a non-empty list of numbers")
        if len(vals) > MAX_SPACE:
            raise ValueError(f"values must have at most {MAX_SPACE} entries")
        if "space" in doc and doc["space"] != len(vals):
            raise ValueError("space field disagrees with the value count")
        return np.asarray(vals, dtype=float)

    def write(self, v) -> dict:
        """The element document of v, the inverse of ``read``, with no
        negative zeros."""
        values = self.raw(v) + 0.0
        return {"space": int(values.shape[0]), "values": values.tolist()}

    def encode(self, v) -> list:
        """The values as witness JSON."""
        return self.raw(v).tolist()

    def element(self, raw) -> np.ndarray:
        return np.asarray(raw)

    def unit(self, n: int) -> np.ndarray:
        return np.ones(n)

    def one_like(self, v) -> np.ndarray:
        return np.ones(self.raw(v).shape[-1])

    def positive_part(self, v) -> np.ndarray:
        return np.maximum(self.raw(v), 0.0)

    def rickart(self, v) -> np.ndarray:
        return (self.raw(v) == 0.0).astype(float)

    def cover(self, v) -> np.ndarray:
        """Support: the indicator of the nonzero values."""
        return (self.raw(v) > 0.0).astype(float)

    def floor(self, v) -> np.ndarray:
        """The indicator of the values equal to one."""
        return (self.raw(v) == 1.0).astype(float)

    def complement(self, p) -> np.ndarray:
        return 1.0 - self.raw(p)

    def adjoint(self, v) -> np.ndarray:
        """Real values are their own conjugates."""
        return self.raw(v)

    def eigenprojections(self, v
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct values, ascending, with their level-set indicators as
        0/1 arrays, level first, and the mask of each member's own levels:
        ``values[j]`` and ``projections[j]`` are level j of each member of
        a stack, and a member with fewer levels repeats its top value
        there, with a zero indicator."""
        raw = self.raw(v)
        srt = np.sort(raw, axis=-1)
        runs = Runs(cluster_starts(srt, 0.0))
        values = runs.padded(srt.reshape(-1, srt.shape[-1])[runs.member,
                                                            runs.start])
        projs = runs.own[..., None] & (raw == values[..., None])
        return values, projs.astype(float), runs.own

    def scale(self, lam, v) -> np.ndarray:
        """lam * v, with lam a number or an array of one per member."""
        return np.asarray(lam)[..., None] * self.raw(v)

    def extremes(self, v):
        """Least and greatest value."""
        raw = self.raw(v)
        return (per_member(np.min(raw, axis=-1)),
                per_member(np.max(raw, axis=-1)))

    def commutes(self, a, b):
        """Always: True, or one True per member of a stack."""
        shape = np.broadcast(self.raw(a), self.raw(b)).shape[:-1]
        return per_member(np.ones(shape, dtype=bool))

    def compress(self, p, a) -> np.ndarray:
        return self.raw(p) * self.raw(a)

    def product(self, a, b) -> np.ndarray:
        return self.raw(a) * self.raw(b)

    def powers(self, a, count: int) -> np.ndarray:
        """Pointwise powers a, a², ... up to the count-th, as one
        (count, n) array of running products, or (S, count, n) for a
        stack."""
        if count < 1:
            raise ValueError("count must be at least 1")
        raw = self.raw(a)[..., None, :]
        return np.cumprod(np.broadcast_to(
            raw, (*raw.shape[:-2], count, raw.shape[-1])), axis=-2)

    def meet(self, a, b) -> np.ndarray:
        return np.minimum(self.raw(a), self.raw(b))

    def join(self, a, b) -> np.ndarray:
        return np.maximum(self.raw(a), self.raw(b))

    def overlaps(self, projs) -> np.ndarray:
        """‖p_i p_j‖ for every pair of a list of elements, ``(K, K)``, or
        ``(K, K, S)`` for a cluster-first stack: the square roots of one
        Gram product (P∘P)(P∘P)ᵀ, exact on indicators."""
        sq = np.moveaxis(np.square(self.raw(projs)), 0, -2)
        return np.sqrt(np.moveaxis(sq @ sq.swapaxes(-1, -2), (-2, -1), (0, 1)))

    def proj_rank(self, p):
        """The rank of an indicator (its rounded sum), one per member."""
        return per_member(np.rint(self.raw(p).sum(-1)).astype(int))


class EmbeddingReport(NamedTuple):
    """Residuals of the functional-calculus embedding on a polynomial
    family."""

    space: int
    degree: int
    samples: int
    mult_residual: float
    isometry_residual: float


def _phi(reference: EigenDecomposition, mats: np.ndarray
         ) -> tuple[np.ndarray, float]:
    """Evaluate a stack of matrices against the eigenbasis clusters of one
    reference matrix, the clusters of one size together.

    Returns each matrix's mean diagonal value on each cluster, a row per
    matrix, and the defect measuring how far the matrices are from being
    constant on each cluster.
    """
    runs, n = reference.runs, reference.dim
    vectors = reference.vectors.reshape(1, n, n)
    vals = np.empty((len(mats), len(runs.start)))
    defect = 0.0
    for m in sorted(set(runs.size.tolist())):
        pick = runs.size == m
        cols = vectors[run_index(runs.member[pick], runs.start[pick], m, n)]
        block = cols.conj().swapaxes(-1, -2) @ mats[:, None] @ cols
        mean = np.mean(np.real(np.diagonal(block, axis1=-2, axis2=-1)),
                       axis=-1)
        vals[:, pick] = mean
        defect = max(defect, float(np.max(frobenius(
            block - mean[..., None, None] * np.eye(m)))))
    return vals, defect


def spectrum_representation(a: mx.Effect, tol: Tolerances = DEFAULT
                            ) -> tuple[np.ndarray, EmbeddingReport]:
    """Map an effect to the fuzzy set of its spectral values, as their
    value array.

    The point set is the eigenvalue clusters of the effect.  The report
    checks, on sequential powers up to ``EMBEDDING_DEGREE``, that the map
    turns sequential products into pointwise products and that operator
    norms match sup norms: the identity and the powers as one stack, the
    pairs' products as another.
    """
    degree = EMBEDDING_DEGREE
    d = a.decomposition
    image = np.clip(d.cluster_values, 0.0, 1.0)

    ctx = mx.MatrixContext(tol)
    mats = np.concatenate([np.eye(a.dim, dtype=np.complex128)[None],
                           ctx.powers(a, degree)])
    phis, mult = _phi(d, mats)
    elements = ctx.element(mats)
    elements.sqrt_matrix()  # every left operand's root, from one eigh
    i, j = np.nonzero(np.add.outer(np.arange(degree + 1),
                                   np.arange(degree + 1)) <= degree)
    value, defect = _phi(d, ctx.product(elements[i], elements[j]))
    mult = max(mult, defect,
               float(np.max(np.abs(value - phis[i] * phis[j]))))
    iso = float(np.max(np.abs(operator_norm(mats)
                              - np.max(np.abs(phis), axis=-1))))
    report = EmbeddingReport(space=len(image), degree=degree,
                             samples=len(i), mult_residual=mult,
                             isometry_residual=iso)
    return image, report
