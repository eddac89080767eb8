"""Hermitian-matrix effects with the square-root sequential product.

An effect is a Hermitian matrix with spectrum inside [0, 1].  The sequential
product is a o b = sqrt(a) b sqrt(a); compressions are the maps
a -> p a p for projections p.  ``MatrixContext`` holds the model's
operations, the only place each is written, under the same names as
``fuzzy.FuzzyContext``; its random draws are ``sampling.EffectSampler``'s.
Eigensystems are cached on the wrapper objects because nearly every
operation here goes through the spectral theorem.  ``Effect`` is the one
element class, and it trusts its matrix; ``validate_effect`` is the one
route that checks a matrix from outside the program; each matrix built
here is symmetrized once, so ``linalg.eigh`` takes it unchecked.

An ``Effect`` may carry a leading sample axis: a ``(S, n, n)`` stack of
matrices with its ``(S, n)`` values and ``(S, n, n)`` vectors, whose
members an index gives.  The context's verbs take such stacks, and raw
``(S, n, n)`` arrays, member by member with the same bits as one call per
member, and decompose a stack in one LAPACK call; ``powers`` returns one
``(..., count, n, n)`` array.
"""
from __future__ import annotations

import sys

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import (
    DimensionMismatchError,
    EigenDecomposition,
    NotCommutingError,
    decomposition_from,
    eigenvalues,
    eigh,
    frobenius,
    hermitian_part,
    per_member,
    require_hermitian,
    run_projections,
)

# The largest dimension a verifier suite draws its matrices in.
MAX_DIM = 1024


class NotAnEffectError(ValueError):
    """Matrix has an eigenvalue outside [0, 1]."""

    def __init__(self, message: str, eigenvalue: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class Effect:
    """Hermitian matrix with spectrum in [0, 1] (within the psd slack),
    projections included, or a stack of them on leading axes.

    The constructor trusts its caller: it is passed an exactly Hermitian
    matrix (every entry equal to the conjugate of its mirror), such as a
    symmetrized product, a reconstruction, or a sum or real multiple of
    such matrices, or the identity minus one.  It is copied, not checked
    or symmetrized; ``validate_effect`` checks a matrix from outside.

    A stack's eigensystems and square roots are found for all members at
    once; an index (an int, a slice or a mask) gives a member or a
    sub-stack, keeping what is already known of them.
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __getitem__(self, index) -> "Effect":
        out = Effect(self.matrix[index], tol=self.tol, decomposition=(
            None if self._decomp is None else self._decomp[index]))
        if self._sqrt is not None:
            out._sqrt = self._sqrt[index]
        return out

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
        """The orthosupplement 1 - a, keeping a cached decomposition;
        member by member on a stack."""
        mat = np.eye(self.dim) - self.matrix
        decomp = None
        if self._decomp is not None:
            decomp = decomposition_from(1.0 - self._decomp.values,
                                        self._decomp.vectors, self.tol)
        return Effect(mat, tol=self.tol, decomposition=decomp)


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
    """The projection onto the columns of a unitary that ``keep`` marks, a
    run of them; one per member of a stack, the members whose runs are of
    one size with one stacked product."""
    flat = keep.reshape(-1, keep.shape[-1])
    n = vectors.shape[-1]
    return run_projections(vectors.reshape(-1, n, n), np.arange(len(flat)),
                           np.argmax(flat, axis=-1),
                           np.count_nonzero(flat, axis=-1)
                           ).reshape(vectors.shape)


class MatrixContext:
    """Hermitian matrices with p a p compressions and kernel projections.

    The model's operations, each written once here; the spectral engine
    and the verifier read them through this protocol.  A raw array given
    where an effect is expected (``product``, ``powers``, ``floor``) is
    checked as one; any other is trusted to be exactly Hermitian.
    Every verb also takes a stack of elements (an ``Effect`` stack or a
    raw ``(S, n, n)`` array) on leading axes, as numpy's gufuncs do, with
    the same bits per member as one call per member; reductions give one
    value per member, and ``scale`` takes one λ per member.  ``rickart``,
    ``cover`` and ``floor`` build every member's projection after one
    stacked decomposition, one stacked product per projection rank, and
    ``meet`` and ``join`` are a - (a - b)⁺ and b + (a - b)⁺, one stacked
    ``eigh`` of the differences and no clustering.  The clusters
    (``eigenprojections``) of a stack come cluster first, as
    ``linalg.EigenDecomposition`` builds them.

    ``add``, ``sub``, ``residual``, ``norm``, ``leq``, ``is_sharp``,
    ``zero_like``, ``shift`` and ``where`` read only ``raw``, ``mul``,
    ``extremes``, ``one_like`` and ``element_ndim``;
    ``fuzzy.FuzzyContext`` shares them.
    """

    model = "matrix"
    element_ndim = 2  # the trailing axes one element spans
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
        """The projection onto the eigenvectors of d that ``keep`` marks, a
        run of them, with its eigensystem: the kept columns last, each
        part in its order; one per member of a stack."""
        order = np.argsort(keep, axis=-1, kind="stable")
        decomp = EigenDecomposition(
            np.take_along_axis(keep, order, -1).astype(float),
            np.take_along_axis(d.vectors, order[..., None, :], -1), self.tol)
        return Effect(_span(d.vectors, keep), tol=self.tol,
                      decomposition=decomp)

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
        n = np.shape(_matrix(v))[-1]
        return np.eye(n, dtype=np.complex128)

    def zero_like(self, v) -> np.ndarray:
        return np.zeros_like(self.one_like(v))

    def shift(self, v, lam) -> np.ndarray:
        """v - lam: with an array of k values, the stack of k shifts."""
        return self.raw(v) - np.multiply.outer(lam, self.one_like(v))

    def positive_part(self, v) -> np.ndarray:
        d = eigh(_matrix(v), self.tol)
        return d.apply(lambda x: np.clip(x, 0.0, None))

    def rickart(self, v) -> np.ndarray:
        """The projection onto the kernel, spanned by the eigenvectors
        with |λ| <= kernel tol, as a raw array; one per member of a
        stack."""
        d = self._decomposition(v)
        return _span(d.vectors, np.abs(d.values) <= self.tol.kernel)

    def cover(self, a) -> Effect:
        """Support projection: the least projection above the effect."""
        d = self._decomposition(a)
        least = d.values[..., 0].min()
        if least < -self.tol.psd:
            raise NotAnEffectError("support is defined for positive elements",
                                   eigenvalue=float(least))
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

    def where(self, mask, a, b):
        """a's members where the mask over a stack holds and b's elsewhere,
        an unstacked a or b broadcast: for two Effects an Effect, keeping
        the eigensystems both carry; a raw array otherwise."""
        m = np.asarray(mask).reshape(-1, *(1,) * self.element_ndim)
        out = np.where(m, self.raw(a), self.raw(b))
        if not (isinstance(a, Effect) and isinstance(b, Effect)):
            return out
        decomp = None
        if a._decomp is not None and b._decomp is not None:
            decomp = EigenDecomposition(
                np.where(m[..., 0], a._decomp.values, b._decomp.values),
                np.where(m, a._decomp.vectors, b._decomp.vectors), self.tol)
        return Effect(out, tol=self.tol, decomposition=decomp)

    def eigenprojections(self, v
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cluster values with their eigenprojections and the mask of each
        member's own clusters: the read-only arrays of one (for an Effect,
        the cached) decomposition, which builds them once."""
        d = self._decomposition(v)
        return d.cluster_values, d.projectors, d.own

    def add(self, a, b) -> np.ndarray:
        return self.raw(a) + self.raw(b)

    def sub(self, a, b) -> np.ndarray:
        return self.raw(a) - self.raw(b)

    def scale(self, lam, v):
        """lam * v, with lam a number or an array of one per member: for
        an Effect the convex action (lam in [0, 1]), an Effect keeping its
        decomposition; a raw array for a raw array."""
        lam = np.asarray(lam)
        if not isinstance(v, Effect):
            return lam[..., None, None] * _matrix(v)
        if not np.all((0.0 <= lam) & (lam <= 1.0)):
            raise ValueError("scalar must lie in [0, 1]")
        decomp = None
        if v._decomp is not None:
            decomp = decomposition_from(lam[..., None] * v._decomp.values,
                                        v._decomp.vectors, v.tol)
        return Effect(lam[..., None, None] * v.matrix, tol=v.tol,
                      decomposition=decomp)

    def residual(self, a, b):
        """The Frobenius norm of a - b (on mv, its 2-norm), one per member:
        of the difference over its largest entry, scaled back, so that
        tiny entries do not underflow to 0 when squared (as
        ``require_hermitian`` scales)."""
        d = self.sub(a, b)
        axes = tuple(range(-self.element_ndim, 0))
        top = np.max(np.abs(d), axis=axes)
        unit = d / np.expand_dims(np.where(top > 0.0, top, 1.0), axes)
        return per_member(frobenius(unit, self.element_ndim) * top)

    def adjoint(self, v) -> np.ndarray:
        """The conjugate transpose, member by member."""
        return _matrix(v).conj().swapaxes(-1, -2)

    def norm(self, v):
        """The largest |spectral value|, from ``extremes``."""
        low, high = self.extremes(v)
        return per_member(np.maximum(np.abs(low), np.abs(high)))

    def extremes(self, v):
        """Least and greatest eigenvalue."""
        vals = eigenvalues(_matrix(v))
        return per_member(vals[..., 0]), per_member(vals[..., -1])

    def leq(self, a, b):
        """a <= b: b - a's least spectral value is at least -tol.check."""
        return per_member(self.extremes(self.sub(b, a))[0] >= -self.tol.check)

    def commutes(self, a, b):
        """ab = ba within tol.comm, one verdict per member of a stack."""
        am, bm = _matrix(a), _matrix(b)
        return per_member(frobenius(am @ bm - bm @ am) <= self.tol.comm)

    def compress(self, p, a) -> np.ndarray:
        praw = _matrix(p)
        return hermitian_part(praw @ _matrix(a) @ praw)

    def product(self, a, b) -> np.ndarray:
        """Sequential product √a b √a."""
        a, b = self._effect(a), self._effect(b)
        if a.dim != b.dim:
            raise DimensionMismatchError(
                f"dimensions differ: {a.dim} vs {b.dim}")
        s = a.sqrt_matrix()
        return hermitian_part(s @ b.matrix @ s)

    def powers(self, a, count: int) -> np.ndarray:
        """Sequential powers a, a∘a, ... up to the count-th, as one
        (count, n, n) array, or (S, count, n, n) for a stack.

        The powers of a share its eigenbasis, so the square root of the
        k-th is formed there from the k-th cumulative product of its
        values, and the (k+1)-th power is √(aᵏ) a √(aᵏ): every power is
        one stacked product, and nothing is re-diagonalized.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        a = self._effect(a)
        d = a.decomposition
        x = np.clip(d.values, 0.0, 1.0)[..., None, :]
        vals = np.sqrt(np.cumprod(np.broadcast_to(
            x, (*x.shape[:-2], count - 1, x.shape[-1])), axis=-2))
        vectors = d.vectors[..., None, :, :]
        roots = hermitian_part((vectors * vals[..., None, :])
                               @ vectors.conj().swapaxes(-1, -2))
        mat = a.matrix[..., None, :, :]
        return np.concatenate([mat, hermitian_part(roots @ mat @ roots)],
                              axis=-3)

    def _excess(self, a, b) -> np.ndarray:
        """(a - b)⁺ of a commuting pair, or of each pair of members of two
        stacks: one stacked ``eigh`` of the difference."""
        am, bm = _matrix(a), _matrix(b)
        if np.shape(am) != np.shape(bm):
            raise DimensionMismatchError(
                f"dimensions differ: {np.shape(am)[-1]} vs "
                f"{np.shape(bm)[-1]}")
        if not np.all(self.commutes(am, bm)):
            raise NotCommutingError("matrices do not commute")
        return self.positive_part(self.sub(am, bm))

    def meet(self, a, b) -> np.ndarray:
        """Meet of a commuting pair: a - (a - b)⁺."""
        return self.sub(a, self._excess(a, b))

    def join(self, a, b) -> np.ndarray:
        """Join of a commuting pair: b + (a - b)⁺."""
        return self.add(b, self._excess(a, b))

    def is_sharp(self, a):
        """a² = a within tol.check, one verdict per member of a stack;
        entry by entry where |a² - a| underflows to 0 (exact on mv)."""
        raw = self.raw(a)
        d = self.mul(raw, raw) - raw
        r = frobenius(d, self.element_ndim)
        entries = np.all(np.abs(d) <= self.tol.check,
                         axis=tuple(range(-self.element_ndim, 0)))
        return per_member((r / raw.shape[-1] <= self.tol.check)
                          & ((r > 0.0) | entries))

    def overlaps(self, projs) -> np.ndarray:
        """‖p_i p_j‖_F for every pair of a list of projections, ``(K, K)``,
        or ``(K, K, S)`` for a cluster-first stack: one stacked product of
        each with all.  (Not from tr(p_i p_j), the Gram matrix of the
        flattened projections: that equals ‖p_i p_j‖_F² only to first order
        in their rounding, so its square root reads about 1e-8 on
        orthogonal ones.)"""
        m = _matrix(projs)
        return np.stack([frobenius(p @ m) for p in m])

    def proj_rank(self, p):
        """The rank of a projection (its rounded trace), one per member."""
        trace = np.trace(_matrix(p), axis1=-2, axis2=-1).real
        return per_member(np.rint(trace).astype(int))
