"""Hermitian-matrix effects with the square-root sequential product.

An effect is a Hermitian matrix with spectrum inside [0, 1].  The sequential
product is a o b = sqrt(a) b sqrt(a); compressions are the maps
a -> p a p for projections p.  ``MatrixContext`` holds the model's
operations, the only place each is written, under the same names as
``fuzzy.FuzzyContext``; ``EffectSampler`` holds its random draws.
Eigensystems are cached on the wrapper objects because nearly every
operation here goes through the spectral theorem.  ``Effect`` is the one
element class, and it trusts its matrix; ``validate_effect`` is the one
route that checks a matrix from outside the program; each matrix built
here is symmetrized once, so ``linalg.eigh`` takes it unchecked.  The
order and norm operations, the positive part and the Rickart map also
take a ``(k, n, n)`` stack of raw elements and decompose it in one LAPACK
call; ``powers`` returns one ``(count, n, n)`` array.
"""
from __future__ import annotations

import sys

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import (
    EigenDecomposition,
    cluster_indices,
    decomposition_from,
    eigenvalues,
    eigh,
    frobenius,
    hermitian_part,
    operator_norm,
    per_member,
    require_hermitian,
)

# The largest dimension a verifier suite draws its matrices in.
MAX_DIM = 1024


class DimensionMismatchError(ValueError):
    """Operands live on spaces of different dimension."""


class NotAnEffectError(ValueError):
    """Matrix has an eigenvalue outside [0, 1]."""

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NotCommutingError(ValueError):
    """Operation requires a commuting pair."""


def _same_dim(a: "Effect", b: "Effect") -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")


class Effect:
    """Hermitian matrix with spectrum in [0, 1] (within the psd slack),
    projections included.

    The constructor trusts its caller: it is passed an exactly Hermitian
    matrix (every entry equal to the conjugate of its mirror), such as a
    symmetrized product, a reconstruction, or a sum or real multiple of
    such matrices, or the identity minus one.  It is copied, not checked
    or symmetrized; ``validate_effect`` checks a matrix from outside.
    """

    __slots__ = ("matrix", "tol", "_decomp", "_sqrt")

    def __init__(self, matrix: np.ndarray, *, tol: Tolerances = DEFAULT,
                 decomposition: EigenDecomposition | None = None):
        self.tol = tol
        mat = np.array(matrix, dtype=np.complex128)
        mat.flags.writeable = False
        self.matrix = mat
        self._decomp = decomposition
        self._sqrt = None

    @classmethod
    def from_eigensystem(cls, values: np.ndarray, vectors: np.ndarray,
                         tol: Tolerances = DEFAULT) -> "Effect":
        """Trusted constructor: builds the matrix and caches its eigensystem."""
        decomp = decomposition_from(values, vectors, tol)
        mat = decomp.reconstruct()
        return cls(mat, tol=tol, decomposition=decomp)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def decomposition(self) -> EigenDecomposition:
        if self._decomp is None:
            self._decomp = eigh(self.matrix, self.tol)
        return self._decomp

    def sqrt_matrix(self) -> np.ndarray:
        if self._sqrt is None:
            self._sqrt = self.decomposition.apply(
                lambda x: np.sqrt(np.clip(x, 0.0, 1.0)))
        return self._sqrt

    def complement(self) -> "Effect":
        """The orthosupplement 1 - a, keeping a cached decomposition."""
        mat = np.eye(self.dim) - self.matrix
        decomp = None
        if self._decomp is not None:
            decomp = decomposition_from(1.0 - self._decomp.values,
                                        self._decomp.vectors, self.tol)
        return Effect(mat, tol=self.tol, decomposition=decomp)

    def __repr__(self) -> str:
        return f"Effect(dim={self.dim})"


def validate_effect(matrix, tol: Tolerances = DEFAULT) -> Effect:
    """Check that the matrix is Hermitian with 0 <= M <= 1 (within the psd
    slack) and wrap it, symmetrized, as an Effect: the one checking route
    into the model."""
    eff = Effect(require_hermitian(matrix), tol=tol)
    vals = eff.decomposition.values
    if vals[0] < -tol.psd:
        raise NotAnEffectError(
            f"eigenvalue {vals[0]:.6g} below 0", eigenvalue=float(vals[0]))
    if vals[-1] > 1.0 + tol.psd:
        raise NotAnEffectError(
            f"eigenvalue {vals[-1]:.6g} above 1", eigenvalue=float(vals[-1]))
    return eff


def is_number_list(x) -> bool:
    """A list of floats and of ints (not bools) that a float can hold: one
    row of an element document."""
    return isinstance(x, list) and all(
        isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                 and abs(v) <= sys.float_info.max)
        for v in x)


def _matrix(x) -> np.ndarray:
    """The matrix of an Effect, or the array itself, as it is: neither
    checked nor symmetrized; the one coercion of a raw element."""
    return x.matrix if isinstance(x, Effect) else np.asarray(x)


def _span(vectors: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The projection onto the columns of a unitary that ``keep`` marks."""
    cols = vectors[:, keep]
    if not cols.shape[1]:
        return np.zeros(vectors.shape, dtype=np.complex128)
    return hermitian_part(cols @ cols.conj().T)


def joint_eigenbasis(x, y, tol: Tolerances = DEFAULT
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common eigenbasis of a commuting Hermitian pair.

    Returns (vectors, x values, y values) with one value pair per column.
    Raises DimensionMismatchError for matrices of different sizes and
    NotCommutingError when the ordinary commutator is not negligible.
    """
    xm = np.asarray(_matrix(x), dtype=np.complex128)
    ym = np.asarray(_matrix(y), dtype=np.complex128)
    if xm.shape != ym.shape:
        raise DimensionMismatchError(
            f"dimensions differ: {xm.shape[0]} vs {ym.shape[0]}")
    if frobenius(xm @ ym - ym @ xm) > tol.comm:
        raise NotCommutingError("matrices do not commute")
    dx = x.decomposition if isinstance(x, Effect) else eigh(xm, tol)
    n = xm.shape[0]
    vectors = np.zeros((n, n), dtype=np.complex128)
    xvals = np.zeros(n)
    yvals = np.zeros(n)
    reps = dx.cluster_values
    col = 0
    for k, idx in enumerate(dx.clusters):
        cols = dx.vectors[:, list(idx)]
        block = hermitian_part(cols.conj().T @ ym @ cols)
        db = eigh(block, tol)
        refined = cols @ db.vectors
        m = len(idx)
        vectors[:, col:col + m] = refined
        xvals[col:col + m] = reps[k]
        yvals[col:col + m] = db.values
        col += m
    return vectors, xvals, yvals


class MatrixContext:
    """Hermitian matrices with p a p compressions and kernel projections.

    The model's operations, each written once here; the spectral engine
    and the verifier read them through this protocol.  A raw array given
    where an effect is expected (``product``, ``powers``, ``floor``) is
    checked as one; any other is trusted to be exactly Hermitian.
    ``leq``, ``extremes``, ``norm``, ``shift``, ``positive_part``,
    ``rickart`` and ``complement`` of a raw array also take a stack of
    elements on a leading axis, as numpy's gufuncs do, with the same bits
    per member as one call per member; reductions give one value per
    member.
    """

    model = "matrix"
    mul = staticmethod(np.matmul)   # the ordinary product of raw elements
    raw = staticmethod(_matrix)

    def __init__(self, tol: Tolerances = DEFAULT):
        self.tol = tol

    def _effect(self, v) -> Effect:
        """v as an Effect; a raw array is checked as one."""
        if isinstance(v, Effect):
            return v
        return validate_effect(v, self.tol)

    def _decomposition(self, v) -> EigenDecomposition:
        """An Effect's cached eigensystem, or one ``eigh`` of an array."""
        if isinstance(v, Effect):
            return v.decomposition
        return eigh(v, self.tol)

    def _projection(self, d: EigenDecomposition, keep: np.ndarray
                    ) -> Effect:
        """The projection onto the eigenvectors of d that ``keep`` marks,
        with its eigensystem."""
        dim = d.dim
        k = int(np.count_nonzero(keep))
        values = np.concatenate([np.zeros(dim - k), np.ones(k)])
        vectors = np.concatenate([d.vectors[:, ~keep], d.vectors[:, keep]],
                                 axis=1)
        return Effect(_span(d.vectors, keep), tol=self.tol,
                      decomposition=EigenDecomposition(values, vectors,
                                                       self.tol))

    def read(self, doc: dict) -> np.ndarray:
        """The complex matrix of an element document: "re" a square list
        of number rows, "im" (optional) of the same shape, and "dim"
        (optional) the size.  Raises ValueError on any other shape; the
        values themselves are not checked."""
        re = doc["re"]
        if (not isinstance(re, list) or not re
                or any(not is_number_list(row) or len(row) != len(re)
                       for row in re)):
            raise ValueError("re must be a square matrix of numbers")
        n = len(re)
        if "dim" in doc and doc["dim"] != n:
            raise ValueError("dim field disagrees with the matrix size")
        arr = np.asarray(re, dtype=float).astype(np.complex128)
        if "im" in doc:
            im = doc["im"]
            if (not isinstance(im, list) or len(im) != n
                    or any(not is_number_list(row) or len(row) != n
                           for row in im)):
                raise ValueError("im must match the shape of re")
            arr = arr + 1j * np.asarray(im, dtype=float)
        return arr

    def write(self, v) -> dict:
        """The element document of v, the inverse of ``read``: "im" only
        where it is nonzero, and no negative zeros."""
        arr = _matrix(v) + 0.0
        doc = {"dim": int(arr.shape[0]), "re": arr.real.tolist()}
        if np.any(arr.imag != 0.0):
            doc["im"] = arr.imag.tolist()
        return doc

    def encode(self, v) -> dict:
        """The matrix as witness JSON, rounded to 12 places; the
        imaginary part only where it is nonzero."""
        arr = np.asarray(_matrix(v), dtype=np.complex128)
        out = {"re": np.real(arr).round(12).tolist()}
        im = np.imag(arr)
        if np.any(im != 0.0):
            out["im"] = im.round(12).tolist()
        return out

    def element(self, raw: np.ndarray) -> Effect:
        """A trusted, exactly Hermitian raw element as an Effect."""
        return Effect(raw, tol=self.tol)

    def unit(self, n: int) -> Effect:
        return self.element(np.eye(n))

    def one_like(self, v) -> np.ndarray:
        n = np.shape(_matrix(v))[0]
        return np.eye(n, dtype=np.complex128)

    def zero_like(self, v) -> np.ndarray:
        n = np.shape(_matrix(v))[0]
        return np.zeros((n, n), dtype=np.complex128)

    def shift(self, v, lam) -> np.ndarray:
        """v - lam: with an array of k values, the (k, n, n) stack of
        shifts."""
        m = _matrix(v)
        return m - np.multiply.outer(lam, np.eye(m.shape[-1]))

    def positive_part(self, v) -> np.ndarray:
        d = eigh(_matrix(v), self.tol)
        return d.apply(lambda x: np.clip(x, 0.0, None))

    def rickart(self, v) -> np.ndarray:
        """The projection onto the kernel, spanned by the eigenvectors
        with |λ| <= kernel tol, as a raw array; one per member of a
        stack."""
        d = self._decomposition(v)
        keep = np.abs(d.values) <= self.tol.kernel
        out = np.empty(d.vectors.shape, dtype=np.complex128)
        for i in np.ndindex(keep.shape[:-1]):
            out[i] = _span(d.vectors[i], keep[i])
        return out

    def cover(self, a) -> Effect:
        """Support projection: the least projection above the effect."""
        d = self._decomposition(a)
        if d.values[0] < -self.tol.psd:
            raise NotAnEffectError("support is defined for positive elements",
                                   eigenvalue=float(d.values[0]))
        return self._projection(d, d.values > self.tol.kernel)

    def floor(self, a) -> Effect:
        """Largest projection below the effect: the eigenspace at 1.

        Computed as the kernel projection of a - 1, which re-diagonalizes
        the shifted matrix rather than reusing the effect's cached
        eigensystem.
        """
        a = self._effect(a)
        d = eigh(a.matrix - np.eye(a.dim), self.tol)
        return self._projection(d, np.abs(d.values) <= self.tol.kernel)

    def complement(self, v):
        """1 - v: an Effect, keeping its decomposition, for an Effect, a raw
        array for a raw array."""
        if isinstance(v, Effect):
            return v.complement()
        raw = _matrix(v)
        return np.eye(raw.shape[-1]) - raw

    def eigenprojections(self, v
                         ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Cluster values with their eigenprojections: the read-only
        arrays of one (for an Effect, the cached) decomposition, which
        builds them once."""
        d = self._decomposition(v)
        return d.cluster_values, d.projectors

    def add(self, a, b) -> np.ndarray:
        return _matrix(a) + _matrix(b)

    def sub(self, a, b) -> np.ndarray:
        return _matrix(a) - _matrix(b)

    def scale(self, lam: float, v):
        """lam * v: for an Effect the convex action (lam in [0, 1]), an
        Effect keeping its decomposition; a raw array for a raw array."""
        if not isinstance(v, Effect):
            return lam * _matrix(v)
        if not 0.0 <= lam <= 1.0:
            raise ValueError("scalar must lie in [0, 1]")
        decomp = None
        if v._decomp is not None:
            decomp = decomposition_from(lam * v._decomp.values,
                                        v._decomp.vectors, v.tol)
        return Effect(lam * v.matrix, tol=v.tol, decomposition=decomp)

    def residual(self, a, b) -> float:
        return frobenius(_matrix(a) - _matrix(b))

    def norm(self, v):
        return operator_norm(_matrix(v))

    def extremes(self, v):
        """Least and greatest eigenvalue."""
        vals = eigenvalues(_matrix(v))
        return per_member(vals[..., 0]), per_member(vals[..., -1])

    def leq(self, a, b, slack: float | None = None):
        """a <= b: the least eigenvalue of b - a is at least -slack
        (by default tol.check)."""
        if slack is None:
            slack = self.tol.check
        return per_member(eigenvalues(self.sub(b, a))[..., 0] >= -slack)

    def commutes(self, a, b) -> bool:
        am, bm = _matrix(a), _matrix(b)
        return frobenius(am @ bm - bm @ am) <= self.tol.comm

    def compress(self, p, a) -> np.ndarray:
        praw = _matrix(p)
        return hermitian_part(praw @ _matrix(a) @ praw)

    def product(self, a, b) -> np.ndarray:
        """Sequential product √a b √a."""
        a, b = self._effect(a), self._effect(b)
        _same_dim(a, b)
        s = a.sqrt_matrix()
        return hermitian_part(s @ b.matrix @ s)

    def powers(self, a, count: int) -> np.ndarray:
        """Sequential powers a, a∘a, ... up to the count-th, as one
        (count, n, n) array.

        The powers of a share its eigenbasis, so the square root of the
        k-th is formed there from the k-th cumulative product of its
        values, and the (k+1)-th power is √(aᵏ) a √(aᵏ): every power is
        one stacked product, and nothing is re-diagonalized.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        a = self._effect(a)
        roots = a.decomposition.apply(lambda x: np.sqrt(np.cumprod(
            np.broadcast_to(np.clip(x, 0.0, 1.0), (count - 1, x.size)),
            axis=0)))
        return np.concatenate([a.matrix[None],
                               hermitian_part(roots @ a.matrix @ roots)])

    def _apply(self, a, b, fn) -> np.ndarray:
        """A two-argument spectral function of a commuting pair."""
        vectors, avals, bvals = joint_eigenbasis(a, b, self.tol)
        return hermitian_part((vectors * fn(avals, bvals)) @ vectors.conj().T)

    def meet(self, a, b) -> np.ndarray:
        """Meet of a commuting pair."""
        return self._apply(a, b, np.minimum)

    def join(self, a, b) -> np.ndarray:
        """Join of a commuting pair."""
        return self._apply(a, b, np.maximum)

    def is_sharp(self, a) -> bool:
        raw = _matrix(a)
        return frobenius(raw @ raw - raw) / raw.shape[0] <= self.tol.check

    def joint_clusters(self, e, f) -> list[tuple[float, float, np.ndarray]]:
        vectors, xvals, yvals = joint_eigenbasis(e, f, self.tol)
        width = self.tol.cluster * max(1.0, float(np.max(np.abs(xvals)) +
                                                  np.max(np.abs(yvals))))
        out = []
        for xidx in cluster_indices(xvals, width):
            sub = list(xidx)
            for yrel in cluster_indices(yvals[sub], width):
                cols = [sub[i] for i in yrel]
                block = vectors[:, cols]
                out.append((float(np.mean(xvals[cols])),
                            float(np.mean(yvals[cols])),
                            hermitian_part(block @ block.conj().T)))
        return out

    def proj_rank(self, p) -> int:
        return int(round(float(np.real(np.trace(_matrix(p))))))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary.

    The QR factor of a complex Ginibre matrix, with the phases of R's
    diagonal moved into Q so that the law is exactly Haar (Mezzadri,
    Notices AMS 2007).
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class EffectSampler:
    """Deterministic random matrices for tests and verifier suites.

    Unitaries are Haar-distributed (QR of a complex Ginibre matrix);
    effects and projections are built from a sampled unitary and explicit
    eigenvalue lists, so their eigensystems are known up front.  The draws
    have the names and parameters of ``fuzzy.FuzzySampler``'s, so one
    verifier statement serves both models; a frame here is a Haar unitary.
    """

    def __init__(self, seed: int | np.random.SeedSequence, dim: int,
                 tol: Tolerances = DEFAULT):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.dim = dim
        self.tol = tol

    def _diagonal(self, values, frame: np.ndarray) -> Effect:
        return Effect.from_eigensystem(np.asarray(values, dtype=float),
                                       frame, self.tol)

    def scalar(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.rng.uniform(lo, hi))

    def frame(self) -> np.ndarray:
        """A Haar unitary; effects diagonal in one frame commute."""
        return random_unitary(self.rng, self.dim)

    def span(self, frame: np.ndarray, lo: int, hi: int) -> Effect:
        """The projection onto columns lo:hi of a frame, which are
        orthonormal."""
        cols = frame[:, lo:hi]
        if cols.shape[1] == 0:
            # the zero projection, with its eigensystem known up front
            n = self.dim
            return self._diagonal(np.zeros(n), np.eye(n, dtype=np.complex128))
        return Effect(hermitian_part(cols @ cols.conj().T), tol=self.tol)

    def commuting(self, *draws) -> tuple:
        """One sample of each draw, by default two effects, all diagonal in
        one frame, so they commute; each draw takes ``frame=``."""
        u = self.frame()
        return tuple(draw(frame=u)
                     for draw in draws or (self.effect, self.effect))

    def effect(self, lo: float = 0.0, hi: float = 1.0,
               frame: np.ndarray | None = None) -> Effect:
        """Effect with spectrum drawn from [lo, hi]."""
        values = self.rng.uniform(lo, hi, self.dim)
        return self._diagonal(values, self.frame() if frame is None else frame)

    def projection(self, frame: np.ndarray | None = None) -> Effect:
        n = self.dim
        rank = int(self.rng.integers(1, n)) if n > 1 else 1
        if frame is None:
            frame = self.frame()
        values = np.zeros(n)
        values[:rank] = 1.0
        return self._diagonal(self.rng.permutation(values), frame)

    def with_values(self, values) -> Effect:
        """Effect with the given spectrum in a fresh frame."""
        return self._diagonal(values, self.frame())

    def _separated_values(self, count: int, gap: float) -> np.ndarray:
        """Ascending values in [0, 1] on a jittered grid with pairwise gaps
        >= 0.6*gap."""
        grid = np.arange(0.0, 1.0 + 1e-12, gap)
        if count > len(grid):
            raise ValueError("not enough grid room for requested separation")
        picks = np.sort(self.rng.choice(len(grid), size=count, replace=False))
        vals = grid[picks] + self.rng.uniform(-gap / 5.0, gap / 5.0, count)
        return np.clip(vals, 0.0, 1.0)

    def simple(self, gap: float = 0.12) -> Effect:
        """Effect with at most five well-separated eigenvalue levels."""
        n = self.dim
        k = int(self.rng.integers(1, min(n, 5) + 1))
        levels = self._separated_values(k, gap)
        counts = np.ones(k, dtype=int)
        for _ in range(n - k):
            counts[self.rng.integers(0, k)] += 1
        return self.with_values(np.repeat(levels, counts))

    def signed(self) -> np.ndarray:
        """Hermitian matrix with spectrum in [-1, 1] and an exact kernel of
        dimension up to two, below the full dimension."""
        n = self.dim
        zeros = int(self.rng.integers(0, min(2, n - 1) + 1))
        values = np.concatenate([
            np.zeros(zeros),
            self.rng.uniform(-1.0, 1.0, n - zeros),
        ])
        u = self.frame()
        return hermitian_part((u * values) @ u.conj().T)

    def with_top(self, ones: int, ceiling: float = 0.95) -> Effect:
        """Effect with an exact eigenvalue-one cluster of size ``ones`` and
        the other eigenvalues below ``ceiling``."""
        n = self.dim
        ones = min(ones, n)
        values = np.concatenate([
            np.ones(ones),
            self.rng.uniform(0.0, ceiling, n - ones),
        ])
        return self.with_values(values)

    def commuting_with(self, p: Effect, on=None, off=None) -> Effect:
        """Effect equal to ``on`` on p and to ``off`` on 1 - p; either left
        as None is drawn there."""
        d = p.decomposition
        drawn = self.rng.uniform(0.0, 1.0, self.dim)
        vals = np.where(d.values > 0.5, drawn if on is None else on,
                        drawn if off is None else off)
        return Effect.from_eigensystem(vals, d.vectors, self.tol)

    def split_effect(self, frame: np.ndarray, k: int) -> Effect:
        """Effect commuting with the span of the first k columns of a
        frame."""
        qa = random_unitary(self.rng, k)
        qb = random_unitary(self.rng, self.dim - k)
        vecs = np.concatenate([frame[:, :k] @ qa, frame[:, k:] @ qb], axis=1)
        return self._diagonal(self.rng.uniform(0.0, 1.0, self.dim), vecs)

    def orthogonal_pair(self) -> tuple[Effect, Effect]:
        """Two effects with orthogonal supports (their product vanishes)."""
        n = self.dim
        u = self.frame()
        k = int(self.rng.integers(1, n)) if n > 1 else 1
        va = np.zeros(n)
        vb = np.zeros(n)
        va[:k] = self.rng.uniform(0.05, 1.0, k)
        vb[k:] = self.rng.uniform(0.05, 1.0, n - k)
        return self._diagonal(va, u), self._diagonal(vb, u)

    def summable_pair(self) -> tuple[Effect, Effect]:
        """Two effects with a + b <= 1."""
        return self.effect(hi=0.5), self.effect(hi=0.5)

    def refined_commuting(self) -> tuple[Effect, Effect, Effect]:
        """Triple (c, a, b) where a and b both commute with c and
        a + b <= 1.

        c has constant blocks in a shared basis; a and b refine those
        blocks independently, so they rarely commute with each other.
        """
        n = self.dim
        if n == 1:
            c = self.with_values([self.scalar()])
            a = self.with_values([self.scalar(0.0, 0.5)])
            b = self.with_values([self.scalar(0.0, 0.5)])
            return c, a, b
        k = int(self.rng.integers(2, min(n, 3) + 1))
        sizes = np.ones(k, dtype=int)
        for _ in range(n - k):
            sizes[self.rng.integers(0, k)] += 1
        u = self.frame()
        levels = self._separated_values(k, gap=0.15)
        c = self._diagonal(np.repeat(levels, sizes), u)

        def refined() -> Effect:
            cols = []
            vals = []
            start = 0
            for m in sizes:
                q = random_unitary(self.rng, int(m))
                cols.append(u[:, start:start + m] @ q)
                vals.append(self.rng.uniform(0.0, 0.5, int(m)))
                start += m
            return self._diagonal(np.concatenate(vals),
                                  np.concatenate(cols, axis=1))

        return c, refined(), refined()
