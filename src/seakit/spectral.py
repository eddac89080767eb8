"""Spectral machinery over an abstract context.

A context is any model handle exposing addition, scalar action, order,
compression, a Rickart map (kernel projection) and ``eigenprojections``,
the distinct spectral values with their eigenprojections, as raw arrays,
from one decomposition.  On that one call the engine builds reduced
representations, spectral families as exact step functions (their first
and last breakpoints are the bounds), dyadic simple approximations and
orthogonal decompositions with their sign witnesses; it also reconstructs
elements, and builds comparability witnesses from the eigenprojections of
a difference.  Every function takes the context as an argument: each
model's context lives in the model's module (``matrices.MatrixContext``,
``fuzzy.FuzzyContext``), and this module imports neither.

The engine returns what it builds and raises only on its inputs.  Each
law of its answers is checked once, per sample, by the verifier's
statement of it: v = v⁺ − v⁻ by ``prop:decomp``, a comparability
witness's order by ``de:b-compar``, and eigenprojections summing to one
by ``eq:spectprojs`` and ``thm:contexts.reduced``.

Every function also takes a stack of elements, with the bits of one call
per member.  The eigenprojections of a stack come cluster first, a member
with fewer clusters repeating its top value with a zero projection, and
``eigenprojections`` hands out with them the mask of each member's own
clusters, so the running sums, staircases and tags of all members are
formed cluster by cluster on arrays, and a member's padding adds
nothing.  One element is the stack without its leading axis: its values
and projections are arrays too.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import DimensionMismatchError, NotCommutingError, per_member


class SpectralFamily(NamedTuple):
    """Right-continuous step function of projections, held as raw arrays.

    `projections[0]` is the zero projection (the value below the lowest
    breakpoint) and `projections[k]` is the value on
    [breakpoints[k-1], breakpoints[k]).  The families of a stack hold
    arrays breakpoint (and step) first, as ``eigenprojections`` gives its
    clusters: a member with fewer breakpoints repeats its last one, and
    its last step, after them.
    """

    breakpoints: np.ndarray
    projections: np.ndarray

    @property
    def L(self):
        return self.breakpoints[0]

    @property
    def U(self):
        return self.breakpoints[-1]

    def at(self, lam):
        """The step at lam; for the families of a stack, one per member,
        lam a number, one per member, or a stack of those."""
        lead = self.breakpoints.shape[1:]
        lam = np.asarray(lam)
        bps = self.breakpoints.reshape(
            len(self.breakpoints), *(1,) * max(0, lam.ndim - len(lead)), *lead)
        idx = np.count_nonzero(bps <= lam, axis=0)
        return self.projections[(idx, *np.indices(lead, sparse=True))]

    def to_json_dict(self, ctx) -> dict:
        """One element's family with each step as the context's element
        document."""
        return {
            "model": ctx.model,
            "L": float(self.L),
            "U": float(self.U),
            "breakpoints": self.breakpoints.tolist(),
            "projections": [ctx.write(p) for p in self.projections],
        }

    def csv_lines(self, ctx) -> list[str]:
        """The rank of one element's step at each of 101 values from 0 to
        1."""
        lams = [i / 100 for i in range(101)]
        ranks = ctx.proj_rank(self.at(np.array(lams)))
        return ["lambda,rank"] + [f"{lam:.6f},{rank}"
                                  for lam, rank in zip(lams, ranks.tolist())]


class OrthogonalDecomposition(NamedTuple):
    """Split v = v_plus - v_minus through a commuting projection p, with
    the sign witnesses of ``sign_witness_projections``, p the first."""

    v_plus: np.ndarray
    v_minus: np.ndarray
    p: np.ndarray
    witnesses: list[np.ndarray]


class ComparabilityWitness(NamedTuple):
    """The projection comparing a commuting pair sidewise.

    `degenerate` marks ties between the paired values, where more than
    one witness exists and the tie-break put the tied part under p.
    """

    p: np.ndarray
    degenerate: bool = False


class ReducedRepresentation(NamedTuple):
    """Strictly increasing coefficients with orthogonal projections
    summing to one, cluster first for a stack, with the mask of each
    member's own clusters."""

    coefficients: np.ndarray
    projections: np.ndarray
    own: np.ndarray


def kept_sum(ctx, keep, projs):
    """The sum from zero, cluster by cluster, of the projections that
    ``keep`` (cluster first, as ``projs``) marks for each member: a
    cluster no member keeps adds nothing, and one all keep is added
    whole."""
    flat = np.reshape(keep, (len(keep), -1))
    every = flat.all(axis=1)
    acc = np.zeros_like(projs[0])
    for j in np.flatnonzero(flat.any(axis=1)).tolist():
        acc = ctx.add(acc, projs[j] if every[j] else np.where(
            np.reshape(keep[j], np.shape(keep[j]) + (1,) * ctx.element_ndim),
            projs[j], 0.0))
    return acc


def spectral_family(v, ctx) -> SpectralFamily:
    """Family p_λ as running sums of the eigenprojections of v, or of
    each member of a stack.

    The verifier's eq:spectprojs statement checks it against the
    definition, the Rickart projection of (v - λ)⁺.
    """
    rep = reduced_representation(v, ctx)
    return family_from_representation(rep.coefficients, rep.projections)


def family_from_representation(coefficients, projections) -> SpectralFamily:
    """Closed-form family: cumulative sums of the given raw projections
    (one element's, or cluster first those of a stack)."""
    if not len(projections):
        raise ValueError("at least one projection required")
    zero = np.zeros_like(projections[0])[None]
    return SpectralFamily(np.asarray(coefficients), np.cumsum(
        np.concatenate([zero, projections]), axis=0))


def _tag(b: float, hi: float, mesh: float, count: int) -> float:
    """Least partition point hi - j * mesh (0 <= j <= count) at or above
    b <= hi, found by bisecting over j: no point list is built, so the
    cost is O(log count) whatever the mesh."""
    lo_j, hi_j = 0, count
    while lo_j < hi_j:
        mid = (lo_j + hi_j + 1) // 2
        if hi - mid * mesh >= b:
            lo_j = mid
        else:
            hi_j = mid - 1
    return hi - lo_j * mesh


def reconstruct(family: SpectralFamily, mesh: float | None = None):
    """Stieltjes sum over a partition with right-endpoint tags; one per
    member of a stack's families.

    With mesh=None the partition is exactly the breakpoints and the sum
    telescopes to the element; with a positive mesh the partition covers
    [L - mesh, U] with step `mesh` and the error is at most `mesh`.
    """
    bps = np.asarray(family.breakpoints)
    jumps = np.diff(np.asarray(family.projections), axis=0)
    if mesh is None:
        tags = bps
    else:
        if mesh <= 0:
            raise ValueError("mesh must be positive")
        # one row of breakpoints per breakpoint index, a column per member
        rows = bps.reshape(len(bps), -1).tolist()
        counts = []
        for lo, hi in zip(rows[0], rows[-1]):
            steps = (hi - lo + mesh) / mesh
            if not math.isfinite(steps):
                raise ValueError(f"mesh {mesh:g} is too fine to count the "
                                 f"partition of [{lo:g}, {hi:g}]")
            counts.append(max(1, math.ceil(steps - 1e-12)))
        tags = np.reshape([[_tag(b, hi, mesh, count) for b, hi, count in zip(
            row, rows[-1], counts)] for row in rows], bps.shape)
    # the sum in breakpoint order, from zero
    return np.add.reduce(tags.reshape(*tags.shape, *(1,) * (
        jumps.ndim - tags.ndim)) * jumps, axis=0, initial=0.0)


def simple_approximation(a, n, ctx):
    """Dyadic lower staircase: floor the spectral values at 2^-n.

    The eigenprojections carry the largest multiple of 2^-n below their
    value, so the results ascend with n and sit within 2^-n of a.  With
    an array of levels, the stack of their staircases, one per level,
    from one pass over the eigenprojections; for a stack of elements, one
    such stack per member, ``(S, levels, ...)``.
    """
    levels = np.asarray(n)
    if np.any(levels < 1):
        raise ValueError("level must be at least 1")
    values, projs, _ = ctx.eigenprojections(a)
    acc = ctx.zero_like(a)
    scale = 2.0 ** levels
    # one coefficient per level for each cluster's projection; ``ctx.scale``
    # puts the levels on the axis before the element's
    coeffs = np.floor(np.multiply.outer(np.clip(values, 0.0, 1.0), scale)
                      + 1e-12) / scale
    if levels.ndim:
        projs = np.expand_dims(projs, -1 - ctx.element_ndim)
    for coeff, proj in zip(coeffs, projs):
        acc = ctx.add(acc, ctx.scale(coeff, proj))
    return acc


def orthogonal_decomposition(v, ctx) -> OrthogonalDecomposition:
    """Unique split v = v_plus - v_minus with orthogonal positive parts;
    p is the least sign witness, the support of the positive part, and
    the first of the sign witnesses the split carries.  One of each per
    member of a stack, as built: v_plus = p v p and v_minus =
    -(1 - p) v (1 - p)."""
    raw = ctx.raw(v)
    witnesses = sign_witness_projections(v, ctx)
    p = witnesses[0]
    v_plus = ctx.compress(p, raw)
    v_minus = ctx.scale(-1.0, ctx.compress(ctx.complement(p), raw))
    return OrthogonalDecomposition(v_plus, v_minus, p, witnesses)


def sign_witness_projections(v, ctx) -> list[np.ndarray]:
    """The least and the greatest projection q with the whole positive
    part under q and the negative part under its complement: the
    positive clusters' sum, then that plus the kernel clusters'; each
    one q per member of a stack."""
    values, projs, own = ctx.eigenprojections(v)
    pos = kept_sum(ctx, own & (values > ctx.tol.kernel), projs)
    kernel = kept_sum(ctx, own & (np.abs(values) <= ctx.tol.kernel), projs)
    return [pos, pos + kernel]


def comparability_witness(e, f, ctx) -> ComparabilityWitness:
    """A projection p with the e-part below the f-part under p and the
    reverse under its complement; one per pair of members of two stacks.

    p is the spectral projection of e - f on (-∞, 0]: the sum of its own
    clusters at values up to tol.kernel, which no cluster straddles (a
    cluster within the clustering width of 0, a tie, is flagged as
    degenerate), as built.  Raises DimensionMismatchError and
    NotCommutingError on its inputs.
    """
    eraw, fraw = ctx.raw(e), ctx.raw(f)
    if eraw.shape != fraw.shape:
        raise DimensionMismatchError(
            f"dimensions differ: {eraw.shape[-1]} vs {fraw.shape[-1]}")
    if not np.all(ctx.commutes(e, f)):
        raise NotCommutingError("elements do not commute")
    values, projs, own = ctx.eigenprojections(ctx.sub(e, f))
    width = ctx.tol.cluster * np.maximum(1.0, np.max(np.abs(values), axis=0))
    degenerate = np.any(own & (np.abs(values) <= width), axis=0)
    p = kept_sum(ctx, own & (values <= ctx.tol.kernel), projs)
    return ComparabilityWitness(p, per_member(degenerate))


def reduced_representation(a, ctx) -> ReducedRepresentation:
    """Distinct spectral values with their eigenprojections, the arrays of
    ``eigenprojections`` (cluster first for a stack), as given."""
    return ReducedRepresentation(*ctx.eigenprojections(a))
