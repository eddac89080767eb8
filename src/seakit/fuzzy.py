"""Functions from a finite set into [0,1] with pointwise operations.

The commutative model: partial addition is pointwise sum when it stays
under one, the sequential product is the pointwise product, and order,
meet, and join are pointwise.  Arithmetic is exact for dyadic inputs, so
checks in this model compare with threshold zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from . import matrices as mx
from .linalg import frobenius, hermitian_part, operator_norm
from .spectral import SpectralFamily

MAX_SPACE = 1024


class SpaceMismatchError(ValueError):
    """Operands live on different point sets."""


class NotAFuzzySetError(ValueError):
    """Values escape [0, 1]."""


class NotSharpError(ValueError):
    """Operation requires a {0,1}-valued argument."""


class FuzzySet:
    """Vector of values in [0,1], validated exactly and stored read-only."""

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or not 1 <= arr.shape[0] <= MAX_SPACE:
            raise NotAFuzzySetError(
                f"need a 1-d value list with at most {MAX_SPACE} points")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise NotAFuzzySetError("values must lie in [0, 1]")
        arr.flags.writeable = False
        self.values = arr

    @property
    def space(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())

    def __repr__(self) -> str:
        return f"FuzzySet({self.values.tolist()})"


def zero(space: int) -> FuzzySet:
    return FuzzySet(np.zeros(space))


def one(space: int) -> FuzzySet:
    return FuzzySet(np.ones(space))


def indicator(space: int, points) -> FuzzySet:
    vals = np.zeros(space)
    vals[list(points)] = 1.0
    return FuzzySet(vals)


def _same_space(a: FuzzySet, b: FuzzySet) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(f"spaces differ: {a.space} vs {b.space}")


def mv_oplus(a: FuzzySet, b: FuzzySet) -> FuzzySet | None:
    """Pointwise sum when it stays under one everywhere, else undefined."""
    _same_space(a, b)
    total = a.values + b.values
    if np.any(total > 1.0):
        return None
    return FuzzySet(total)


def mv_ominus(b: FuzzySet, a: FuzzySet) -> FuzzySet:
    """Pointwise difference b - a; requires a below b."""
    _same_space(a, b)
    if not mv_leq(a, b):
        raise ValueError("difference requires the subtrahend to sit below")
    return FuzzySet(b.values - a.values)


def mv_neg(a: FuzzySet) -> FuzzySet:
    return FuzzySet(1.0 - a.values)


def mv_leq(a: FuzzySet, b: FuzzySet) -> bool:
    _same_space(a, b)
    return bool(np.all(a.values <= b.values))


def mv_meet(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_space(a, b)
    return FuzzySet(np.minimum(a.values, b.values))


def mv_join(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    _same_space(a, b)
    return FuzzySet(np.maximum(a.values, b.values))


def mv_seq(a: FuzzySet, b: FuzzySet) -> FuzzySet:
    """Pointwise product; the sequential product of this model."""
    _same_space(a, b)
    return FuzzySet(a.values * b.values)


def mv_is_sharp(a: FuzzySet) -> bool:
    return bool(np.all((a.values == 0.0) | (a.values == 1.0)))


def mv_compression(p: FuzzySet, a: FuzzySet) -> FuzzySet:
    """Cut a down to the support of a sharp element."""
    if not mv_is_sharp(p):
        raise NotSharpError("compression needs a {0,1}-valued focus")
    return mv_seq(p, a)


class Context:
    """Partition of the point set; blocks play the role of projections."""

    __slots__ = ("space", "blocks")

    def __init__(self, space: int, blocks):
        blocks = tuple(tuple(sorted(int(i) for i in blk)) for blk in blocks)
        seen: set[int] = set()
        for blk in blocks:
            if not blk:
                raise ValueError("empty block in partition")
            if seen.intersection(blk):
                raise ValueError("blocks overlap")
            seen.update(blk)
        if seen != set(range(space)):
            raise ValueError("blocks do not cover the space")
        self.space = space
        self.blocks = blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Context):
            return NotImplemented
        return self.space == other.space and self.blocks == other.blocks

    def projections(self) -> list[FuzzySet]:
        return [indicator(self.space, blk) for blk in self.blocks]


def mv_is_context_spectral(a: FuzzySet, delta: float = 0.0
                           ) -> tuple[bool, Context, tuple[float, ...]]:
    """Reduced representation by level sets.

    Always succeeds here: blocks are the level sets of the values, in
    ascending value order.  With delta > 0, values closer than delta are
    merged into one block (the block value is the first representative).
    """
    values = a.values
    order = np.argsort(values, kind="stable")
    blocks: list[list[int]] = []
    mu: list[float] = []
    for idx in order:
        v = float(values[idx])
        if mu and (v == mu[-1] or (delta > 0.0 and v - mu[-1] <= delta)):
            blocks[-1].append(int(idx))
        else:
            mu.append(v)
            blocks.append([int(idx)])
    ctx = Context(a.space, blocks)
    return True, ctx, tuple(mu)


def mv_spectral_family(a: FuzzySet) -> SpectralFamily:
    """Closed-form family: cumulative level-set indicators.

    Built directly from the reduced representation, with no kernel
    projections involved, so it can cross-check the generic engine.
    """
    _, ctx, mu = mv_is_context_spectral(a)
    steps = [zero(a.space)]
    acc = np.zeros(a.space)
    for blk in ctx.blocks:
        acc = acc.copy()
        acc[list(blk)] = 1.0
        steps.append(FuzzySet(acc))
    return SpectralFamily(tuple(mu), tuple(steps), "fuzzy")


class FuzzyContext:
    """Spectral context over value vectors; thresholds are exact."""

    model = "fuzzy"
    has_rickart = True

    def __init__(self, tol: Tolerances = DEFAULT):
        self.tol = tol.replace(check=0.0, kernel=0.0, comm=0.0)

    def raw(self, v) -> np.ndarray:
        if isinstance(v, FuzzySet):
            return v.values
        arr = np.asarray(v, dtype=float)
        if arr.ndim != 1:
            raise NotAFuzzySetError("expected a 1-d value vector")
        return arr

    def one_like(self, v) -> np.ndarray:
        return np.ones(self.raw(v).shape[0])

    def zero_like(self, v) -> np.ndarray:
        return np.zeros(self.raw(v).shape[0])

    def wrap_projection(self, raw: np.ndarray) -> FuzzySet:
        return FuzzySet(raw)

    def zero_proj(self, v) -> FuzzySet:
        return FuzzySet(self.zero_like(v))

    def shift(self, v, lam: float) -> np.ndarray:
        return self.raw(v) - lam

    def positive_part(self, v) -> np.ndarray:
        return np.maximum(self.raw(v), 0.0)

    def rickart(self, v) -> FuzzySet:
        return FuzzySet((self.raw(v) == 0.0).astype(float))

    def support(self, v) -> FuzzySet:
        return FuzzySet((self.raw(v) > 0.0).astype(float))

    def complement(self, p) -> np.ndarray:
        return 1.0 - self.raw(p)

    def eigenprojections(self, v) -> tuple[np.ndarray, list[FuzzySet]]:
        """Distinct values, ascending, with their level-set indicators."""
        raw = self.raw(v)
        values = np.unique(raw)
        return values, [FuzzySet((raw == lam).astype(float)) for lam in values]

    def add(self, a, b) -> np.ndarray:
        return self.raw(a) + self.raw(b)

    def sub(self, a, b) -> np.ndarray:
        return self.raw(a) - self.raw(b)

    def scale(self, lam: float, v) -> np.ndarray:
        return lam * self.raw(v)

    def residual(self, a, b) -> float:
        return float(np.max(np.abs(self.raw(a) - self.raw(b))))

    def norm(self, v) -> float:
        return float(np.max(np.abs(self.raw(v))))

    def leq(self, a, b, slack: float = 0.0) -> bool:
        return bool(np.all(self.raw(a) <= self.raw(b) + slack))

    def commutes(self, a, b) -> bool:
        return True

    def compress(self, p, a) -> np.ndarray:
        return self.raw(p) * self.raw(a)

    def joint_clusters(self, e, f) -> list[tuple[float, float, FuzzySet]]:
        eraw, fraw = self.raw(e), self.raw(f)
        pairs = sorted(set(zip(eraw.tolist(), fraw.tolist())))
        out = []
        for ev, fv in pairs:
            mask = (eraw == ev) & (fraw == fv)
            out.append((ev, fv, FuzzySet(mask.astype(float))))
        return out

    def proj_rank(self, p) -> int:
        return int(round(float(np.sum(self.raw(p)))))


@dataclass(frozen=True)
class EmbeddingReport:
    """Residuals of the functional-calculus embedding on a polynomial
    family."""

    space: int
    degree: int
    samples: int
    mult_residual: float
    isometry_residual: float


def _phi(effect_decomp, matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Evaluate a matrix against the eigenbasis clusters of a reference.

    Returns the per-cluster mean diagonal values and the defect measuring
    how far the matrix is from being constant on each cluster.
    """
    vals = []
    defect = 0.0
    for idx in effect_decomp.clusters:
        cols = effect_decomp.vectors[:, list(idx)]
        block = cols.conj().T @ matrix @ cols
        mean = float(np.mean(np.real(np.diag(block))))
        defect = max(defect, frobenius(block - mean * np.eye(len(idx))))
        vals.append(mean)
    return np.array(vals), defect


def spectrum_representation(a: mx.Effect, degree: int = 6,
                            tol: Tolerances = DEFAULT
                            ) -> tuple[FuzzySet, EmbeddingReport]:
    """Map an effect to the fuzzy set of its spectral values.

    The point set is the eigenvalue clusters of the effect.  The report
    checks, on sequential powers up to the given degree, that the map
    turns sequential products into pointwise products and that operator
    norms match sup norms.
    """
    if not 1 <= degree <= 6:
        raise ValueError("degree must be between 1 and 6")
    d = a.decomposition
    reps = np.clip(np.asarray(d.cluster_values()), 0.0, 1.0)
    image = FuzzySet(reps)

    powers = mx.floor_iterates(a, degree, tol)
    mats = [np.eye(a.dim, dtype=np.complex128)] + [p.matrix for p in powers]
    phis = []
    mult = 0.0
    for m in mats:
        value, defect = _phi(d, m)
        phis.append(value)
        mult = max(mult, defect)
    samples = 0
    for i in range(len(mats)):
        for j in range(len(mats)):
            if i + j > degree:
                continue
            prod = mx.seq_product(
                mx.Effect(mats[i], tol=tol, validate=False),
                mx.Effect(mats[j], tol=tol, validate=False), tol).matrix
            value, defect = _phi(d, prod)
            mult = max(mult, defect,
                       float(np.max(np.abs(value - phis[i] * phis[j]))))
            samples += 1
    iso = 0.0
    for m, phi in zip(mats, phis):
        iso = max(iso, abs(operator_norm(m) - float(np.max(np.abs(phi)))))
    report = EmbeddingReport(space=image.space, degree=degree,
                             samples=samples, mult_residual=mult,
                             isometry_residual=iso)
    return image, report


class FuzzySampler:
    """Deterministic dyadic fuzzy sets; all sampled values are multiples
    of 2^-8, so sums and products are exact in double precision."""

    BITS = 8

    def __init__(self, seed: int | np.random.SeedSequence, space: int):
        if not 1 <= space <= MAX_SPACE:
            raise ValueError("space out of range")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.space = space
        self.denom = 2 ** self.BITS

    def fuzzy(self) -> FuzzySet:
        ticks = self.rng.integers(0, self.denom + 1, self.space)
        return FuzzySet(ticks / self.denom)

    def summable_pair(self) -> tuple[FuzzySet, FuzzySet]:
        ka = self.rng.integers(0, self.denom + 1, self.space)
        kb = self.rng.integers(0, self.denom + 1 - ka)
        return FuzzySet(ka / self.denom), FuzzySet(kb / self.denom)

    def summable_triple(self) -> tuple[FuzzySet, FuzzySet, FuzzySet]:
        ka = self.rng.integers(0, self.denom + 1, self.space)
        kb = self.rng.integers(0, self.denom + 1 - ka)
        kc = self.rng.integers(0, self.denom + 1 - ka - kb)
        return (FuzzySet(ka / self.denom), FuzzySet(kb / self.denom),
                FuzzySet(kc / self.denom))

    def sharp(self) -> FuzzySet:
        return FuzzySet(self.rng.integers(0, 2, self.space).astype(float))

    def context(self, parts: int | None = None) -> Context:
        if parts is None:
            parts = int(self.rng.integers(1, min(self.space, 5) + 1))
        parts = min(parts, self.space)
        perm = self.rng.permutation(self.space)
        cuts = np.sort(self.rng.choice(
            np.arange(1, self.space), size=parts - 1, replace=False)) \
            if parts > 1 else np.array([], dtype=int)
        blocks = np.split(perm, cuts)
        return Context(self.space, [blk.tolist() for blk in blocks])
