"""Spectral machinery over an abstract context.

A context is any model handle exposing addition, scalar action, order,
compression, a Rickart map (kernel projection) and ``eigenprojections``,
the distinct spectral values with their eigenprojections, as raw arrays,
from one decomposition.  On that one call the engine builds reduced
representations, spectral families as exact step functions, bounds, dyadic
simple approximations, sign witnesses and orthogonal decompositions; it
also reconstructs elements and builds comparability witnesses.  Every
function takes the context as an argument: each model's context lives in
the model's module (``matrices.MatrixContext``, ``fuzzy.FuzzyContext``),
and this module imports neither.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralFamily:
    """Right-continuous step function of projections, held as raw arrays.

    `projections[0]` is the zero projection (the value below the lowest
    breakpoint) and `projections[k]` is the value on
    [breakpoints[k-1], breakpoints[k]).
    """

    breakpoints: tuple[float, ...]
    projections: tuple
    model: str

    @property
    def L(self) -> float:
        return self.breakpoints[0]

    @property
    def U(self) -> float:
        return self.breakpoints[-1]

    def at(self, lam: float):
        idx = bisect.bisect_right(self.breakpoints, lam)
        return self.projections[idx]

    def jump(self, k: int) -> np.ndarray:
        """Raw jump at breakpoint k (1-based): p(k) - p(k-1)."""
        if not 1 <= k <= len(self.breakpoints):
            raise IndexError("jump index out of range")
        return self.projections[k] - self.projections[k - 1]

    def to_json_dict(self, ctx) -> dict:
        """The family with each step as the context's element document."""
        return {
            "model": self.model,
            "L": self.L,
            "U": self.U,
            "breakpoints": list(self.breakpoints),
            "projections": [ctx.write(p) for p in self.projections],
        }

    def csv_lines(self, ctx, points: int = 101, lo: float = 0.0,
                  hi: float = 1.0) -> list[str]:
        """The rank of the step at each of ``points`` values from lo to
        hi."""
        lines = ["lambda,rank"]
        for i in range(points):
            lam = lo + (hi - lo) * i / (points - 1) if points > 1 else lo
            lines.append(f"{lam:.6f},{ctx.proj_rank(self.at(lam))}")
        return lines


@dataclass(frozen=True)
class SpectralBounds:
    L: float
    U: float


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """Split v = v_plus - v_minus through a commuting projection p."""

    v_plus: np.ndarray
    v_minus: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class ComparabilityWitness:
    """The projection comparing a commuting pair sidewise.

    `degenerate` marks ties between the paired values, where more than
    one witness exists and the tie-break put the tied part under p.
    """

    p: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class ReducedRepresentation:
    """Strictly increasing coefficients with orthogonal projections
    summing to one."""

    coefficients: tuple[float, ...]
    projections: tuple


def spectral_family(v, ctx) -> SpectralFamily:
    """Family p_λ as running sums of the eigenprojections of v.

    The verifier's eq:spectprojs statement checks it against the
    definition, the Rickart projection of (v - λ)⁺.
    """
    rep = reduced_representation(v, ctx)
    return family_from_representation(rep.coefficients, rep.projections,
                                      ctx.model)


def family_from_representation(coefficients, projections, model: str
                               ) -> SpectralFamily:
    """Closed-form family: cumulative sums of the given raw projections."""
    if not projections:
        raise ValueError("at least one projection required")
    steps = [np.zeros_like(projections[0])]
    for p in projections:
        steps.append(steps[-1] + p)
    return SpectralFamily(tuple(float(c) for c in coefficients),
                          tuple(steps), model)


def eigenprojection(v, lam, ctx):
    """Kernel projection of v - lam; zero unless lam is an eigenvalue.
    With an array of values, the stack of their projections, from one
    decomposition of the stacked shifts."""
    return ctx.rickart(ctx.shift(ctx.raw(v), lam))


def spectral_bounds(v, ctx) -> SpectralBounds:
    """Least and greatest spectral values: L·1 <= v <= U·1, tightly."""
    values, _ = ctx.eigenprojections(v)
    return SpectralBounds(float(values[0]), float(values[-1]))


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
    """Stieltjes sum over a partition with right-endpoint tags.

    With mesh=None the partition is exactly the breakpoints and the sum
    telescopes to the element; with a positive mesh the partition covers
    [L - mesh, U] with step `mesh` and the error is at most `mesh`.
    """
    bps = family.breakpoints
    jumps = [family.jump(k) for k in range(1, len(bps) + 1)]
    if mesh is None:
        tags = list(bps)
    else:
        if mesh <= 0:
            raise ValueError("mesh must be positive")
        lo, hi = bps[0], bps[-1]
        steps = (hi - lo + mesh) / mesh
        if not math.isfinite(steps):
            raise ValueError(f"mesh {mesh:g} is too fine to count the "
                             f"partition of [{lo:g}, {hi:g}]")
        count = max(1, math.ceil(steps - 1e-12))
        tags = [_tag(b, hi, mesh, count) for b in bps]
    acc = np.zeros_like(jumps[0])
    for tag, jump in zip(tags, jumps):
        acc = acc + tag * jump
    return acc


def simple_approximation(a, n, ctx):
    """Dyadic lower staircase: floor the spectral values at 2^-n.

    The eigenprojections carry the largest multiple of 2^-n below their
    value, so the results ascend with n and sit within 2^-n of a.  With
    an array of levels, the stack of their staircases, one per level,
    from one pass over the eigenprojections.
    """
    levels = np.asarray(n)
    if np.any(levels < 1):
        raise ValueError("level must be at least 1")
    values, projs = ctx.eigenprojections(a)
    acc = ctx.zero_like(a)
    scale = 2.0 ** levels
    # one coefficient per level for each eigenprojection; ``ctx.scale``
    # puts the levels on a leading axis
    coeffs = np.floor(np.multiply.outer(np.clip(values, 0.0, 1.0), scale)
                      + 1e-12) / scale
    for coeff, proj in zip(coeffs, projs):
        acc = ctx.add(acc, ctx.scale(coeff, proj))
    return acc


def orthogonal_decomposition(v, ctx) -> OrthogonalDecomposition:
    """Unique split v = v_plus - v_minus with orthogonal positive parts;
    p is the least sign witness, the support of the positive part.

    The identities are checked against tol.check times the largest real
    or imaginary part of v, or 1 if that is smaller: each residual is
    measured on its argument times the reciprocal of that scale, whose
    parts are at most about 1, so neither the scale nor the residual
    overflows, and for parts up to 1 the comparison is the absolute one.
    """
    raw = ctx.raw(v)
    p = sign_witness_projections(v, ctx, limit=1)[0]
    comp = ctx.complement(p)
    v_plus = ctx.compress(p, raw)
    v_minus = ctx.scale(-1.0, ctx.compress(comp, raw))
    shrink = 1.0 / max(1.0, float(np.max(np.abs(np.real(raw)))),
                       float(np.max(np.abs(np.imag(raw)))))
    zero = ctx.zero_like(v)
    worst = max(ctx.residual(ctx.scale(shrink, x), zero) for x in (
        ctx.sub(raw, ctx.sub(v_plus, v_minus)),
        ctx.compress(p, v_minus),
        ctx.compress(comp, v_plus)))
    if worst > ctx.tol.check:
        raise ArithmeticError(
            f"decomposition identities failed: {worst / shrink:.3e}")
    return OrthogonalDecomposition(v_plus, v_minus, p)


def sign_witness_projections(v, ctx, limit: int = 64) -> list[np.ndarray]:
    """The projections q with the whole positive part under q and the
    negative part under its complement; one per subset of the kernel
    clusters."""
    values, projs = ctx.eigenprojections(v)
    pos = ctx.zero_like(v)
    zero_projs = []
    for lam, proj in zip(values, projs):
        if lam > ctx.tol.kernel:
            pos = ctx.add(pos, proj)
        elif abs(lam) <= ctx.tol.kernel:
            zero_projs.append(proj)
    out = []
    for mask in range(2 ** len(zero_projs)):
        if len(out) >= limit:
            break
        q = pos.copy()
        for i, zp in enumerate(zero_projs):
            if mask >> i & 1:
                q = q + zp
        out.append(q)
    return out


def comparability_witness(e, f, ctx) -> ComparabilityWitness:
    """A projection p with the e-part below the f-part under p and the
    reverse under its complement.

    Built from joint eigenprojections: p collects the joint clusters where
    the e-value does not exceed the f-value (ties included, flagged as
    degenerate).  Raises NotCommutingError for non-commuting input.
    """
    clusters = ctx.joint_clusters(e, f)
    width = ctx.tol.cluster * max(
        1.0, max(abs(ev) + abs(fv) for ev, fv, _ in clusters))
    p = None
    degenerate = False
    for ev, fv, proj in clusters:
        if abs(ev - fv) <= width:
            degenerate = True
        if ev <= fv + width:
            p = proj if p is None else p + proj
    if p is None:
        p = ctx.zero_like(e)
    comp = ctx.complement(p)
    ok = (ctx.leq(ctx.compress(p, e), ctx.compress(p, f))
          and ctx.leq(ctx.compress(comp, f), ctx.compress(comp, e)))
    if not ok:
        raise ArithmeticError("constructed witness failed its defining order")
    return ComparabilityWitness(p, degenerate)


def reduced_representation(a, ctx) -> ReducedRepresentation:
    """Distinct spectral values with their eigenprojections."""
    values, projs = ctx.eigenprojections(a)
    total = ctx.zero_like(a)
    for p in projs:
        total = ctx.add(total, p)
    gap = ctx.residual(total, ctx.one_like(a))
    if gap > ctx.tol.check:
        raise ArithmeticError(f"eigenprojections do not sum to one: {gap:.3e}")
    return ReducedRepresentation(tuple(float(x) for x in values),
                                 tuple(projs))
