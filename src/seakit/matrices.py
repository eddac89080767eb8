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
here is symmetrized once, so ``linalg.eigh`` takes it unchecked.

An ``Effect`` may carry a leading sample axis: a ``(S, n, n)`` stack of
matrices with its ``(S, n)`` values and ``(S, n, n)`` vectors, whose
members an index gives.  The context's verbs take such stacks, and raw
``(S, n, n)`` arrays, member by member with the same bits as one call per
member, and decompose a stack in one LAPACK call; ``powers`` returns one
``(..., count, n, n)`` array.  The sampler draws in blocks: a block's
Haar frames take one stacked QR per size, its effects one stacked
reconstruct, and each position of its recipe comes back as one stack.
"""
from __future__ import annotations

import functools
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


def _stack(members) -> Effect:
    """Effects of one dimension as one stack, with their eigensystems
    where every member's is known."""
    decomps = [m._decomp for m in members]
    known = None
    if all(d is not None for d in decomps):
        known = EigenDecomposition(np.array([d.values for d in decomps]),
                                   np.array([d.vectors for d in decomps]),
                                   members[0].tol)
    return Effect(np.array([m.matrix for m in members]), tol=members[0].tol,
                  decomposition=known)


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
    ``zero_like`` and ``shift`` read only ``raw``, ``mul``, ``extremes``,
    ``one_like`` and ``element_ndim``; ``fuzzy.FuzzyContext`` shares them.
    """

    model = "matrix"
    element_ndim = 2  # the trailing axes one element spans
    mul = staticmethod(np.matmul)   # the ordinary product of raw elements
    raw = staticmethod(_matrix)
    stack = staticmethod(_stack)

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
        """The Frobenius norm of a - b (on mv, its 2-norm), one per member."""
        return frobenius(self.sub(a, b), self.element_ndim)

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


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    """A complex Ginibre matrix: the random numbers of one Haar unitary."""
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _haar(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of a Ginibre matrix, or of each member of a stack.

    The QR factor, with the phases of R's diagonal moved into Q so that
    the law is exactly Haar (Mezzadri, Notices AMS 2007); a stack takes
    one LAPACK call, with the same bits per member as one call each.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


class _Pending:
    """A draw made in a block, whose value the block sets at its end; a
    span also carries its eigenvalues and an eigenvector thunk."""

    __slots__ = ("value", "values", "vectors")


class _Known(_Pending):
    """An effect drawn with a known eigensystem: its eigenvalues, unsorted,
    and a thunk that gives the matching eigenvectors, as columns, once the
    block's frames are drawn.  At the block's end it is row ``row`` of the
    block's stack of effects."""

    __slots__ = ("stack", "row")

    def __init__(self, values: np.ndarray, vectors):
        self.values = values
        self.vectors = vectors

    @property
    def value(self) -> Effect:
        return self.stack[self.row]


def _value(x):
    """A frame or an element: its value, if it was pending."""
    return x.value if isinstance(x, _Pending) else x


def _column(draws: list):
    """The draws at one position of a block's recipe, one per sample, as
    one value: tuples and lists position by position, effects as one
    Effect stack, and arrays and numbers as one array."""
    first = draws[0]
    if isinstance(first, (tuple, list)):
        return type(first)(_column([x[i] for x in draws])
                           for i in range(len(first)))
    if all(isinstance(x, _Known) for x in draws):
        return first.stack[np.array([x.row for x in draws])]
    values = [_value(x) for x in draws]
    if isinstance(values[0], Effect):
        return _stack(values)
    return np.array(values)


def _member(column, k: int):
    """Sample k of a column of draws."""
    if isinstance(column, (tuple, list)):
        return type(column)(_member(x, k) for x in column)
    return column[k]


class _Block:
    """What the draws of one ``EffectSampler.draws`` call leave for its end:
    Ginibre matrices, known eigensystems and ragged builds."""

    def __init__(self):
        self.frames: list[tuple[_Pending, np.ndarray]] = []
        self.known: list[_Known] = []
        self.ragged: list[tuple[_Pending, object]] = []

    def __bool__(self) -> bool:
        return bool(self.frames or self.known or self.ragged)

    def complete(self, tol: Tolerances) -> None:
        """Set every pending value: one stacked QR per frame size, the
        ragged builds one by one, and one stacked, stably sorted
        reconstruct of the effects (all of the sampler's dimension), one
        Effect stack with its eigensystems."""
        sizes: dict[int, list] = {}
        for frame, z in self.frames:
            sizes.setdefault(z.shape[0], []).append((frame, z))
        for group in sizes.values():
            unitaries = _haar(np.stack([z for _, z in group]))
            for (frame, _), u in zip(group, unitaries):
                frame.value = u
        for pending, build in self.ragged:
            pending.value = build()
        if self.known:
            values = np.stack([e.values for e in self.known])
            order = np.argsort(values, axis=-1, kind="stable")
            d = EigenDecomposition(
                np.take_along_axis(values, order, -1),
                np.take_along_axis(np.stack([e.vectors() for e in self.known]),
                                   order[:, None, :], -1), tol)
            stack = Effect(d.reconstruct(), tol=tol, decomposition=d)
            for row, e in enumerate(self.known):
                e.stack, e.row = stack, row


def _drawn(draw):
    """A draw of ``EffectSampler``: in a block it defers its linear algebra
    to the block's end, and outside one it is a block of one."""
    @functools.wraps(draw)
    def drawn(self, *args, **kwargs):
        if self._block is None:
            return _member(
                self.draws((0,), lambda k: draw(self, *args, **kwargs)), 0)
        return draw(self, *args, **kwargs)
    return drawn


class EffectSampler:
    """Deterministic random matrices for tests and verifier suites.

    Unitaries are Haar-distributed (QR of a complex Ginibre matrix);
    effects and projections are built from a sampled unitary and explicit
    eigenvalue lists, so their eigensystems are known up front.  The draws
    have the names and parameters of ``fuzzy.FuzzySampler``'s, so one
    verifier statement serves both models; a frame here is a Haar unitary.

    ``draws(ks, recipe)`` makes a block of draws: it runs ``recipe(k)``
    for each sample index k in ks and consumes the random stream exactly as
    that loop does, since the linear algebra draws no random numbers.
    Inside the block a frame is only its Ginibre matrix and an effect only
    its values; at the block's end every frame size takes one stacked QR
    and the effects one stacked reconstruct, with the same bits per member
    as one call each.  Each position of the recipe comes back as one
    stack: member i of it is the draw ``recipe(ks[i])`` made there.  A draw
    made outside a block is member 0 of a block of one.
    """

    _block: _Block | None = None  # the open block of draws, if any

    def __init__(self, seed: int | np.random.SeedSequence, dim: int,
                 tol: Tolerances = DEFAULT):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.dim = dim
        self.tol = tol

    def draws(self, ks, recipe):
        """``[recipe(k) for k in ks]``, the draws of the samples indexed
        ``ks``, settled as one block and returned as one stack per position
        of the recipe: a tuple of stacks for a recipe that returns a tuple.
        Effects stack as an ``Effect`` (on the mv model, as a
        ``(len(ks), n)`` array), frames, arrays and numbers as one array."""
        outer = self._block
        block = self._block = _Block()
        try:
            out = [recipe(k) for k in ks]
        finally:
            self._block = outer
        if block:
            block.complete(self.tol)
        return _column(out)

    def _known(self, values, vectors) -> _Known:
        """An effect with these eigenvalues and the eigenvectors the thunk
        ``vectors`` gives at the block's end."""
        effect = _Known(np.asarray(values, dtype=float), vectors)
        self._block.known.append(effect)
        return effect

    def _diagonal(self, values, frame) -> _Known:
        return self._known(values, lambda: _value(frame))

    def _later(self, build) -> _Pending:
        """A draw that ``build`` makes per member, after the block's QR."""
        pending = _Pending()
        self._block.ragged.append((pending, build))
        return pending

    def _unitary(self, n: int) -> _Pending:
        """An n x n Haar unitary: its Ginibre matrix now, its QR stacked."""
        frame = _Pending()
        self._block.frames.append((frame, _ginibre(self.rng, n)))
        return frame

    def scalar(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.rng.uniform(lo, hi))

    @_drawn
    def frame(self) -> np.ndarray:
        """A Haar unitary; effects diagonal in one frame commute."""
        return self._unitary(self.dim)

    @_drawn
    def span(self, frame: np.ndarray, lo: int, hi: int) -> Effect:
        """The projection onto columns lo:hi of a frame, which are
        orthonormal.  Its matrix is built from those columns, and its
        eigensystem (ones on lo:hi) serves only ``commuting_with``."""
        def build() -> Effect:
            cols = _value(frame)[:, lo:hi]
            return Effect(hermitian_part(cols @ cols.conj().T), tol=self.tol)
        span = self._later(build)
        span.values = np.zeros(self.dim)
        span.values[lo:hi] = 1.0
        span.vectors = lambda: _value(frame)
        return span

    @_drawn
    def commuting(self, *draws) -> tuple:
        """One sample of each draw, by default two effects, all diagonal in
        one frame, so they commute; each draw takes ``frame=``."""
        u = self.frame()
        return tuple(draw(frame=u)
                     for draw in draws or (self.effect, self.effect))

    @_drawn
    def effect(self, lo: float = 0.0, hi: float = 1.0,
               frame: np.ndarray | None = None) -> Effect:
        """Effect with spectrum drawn from [lo, hi]."""
        values = self.rng.uniform(lo, hi, self.dim)
        return self._diagonal(values, self.frame() if frame is None else frame)

    @_drawn
    def projection(self, frame: np.ndarray | None = None) -> Effect:
        n = self.dim
        rank = int(self.rng.integers(1, n)) if n > 1 else 1
        if frame is None:
            frame = self.frame()
        values = np.zeros(n)
        values[:rank] = 1.0
        return self._diagonal(self.rng.permutation(values), frame)

    @_drawn
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

    @_drawn
    def simple(self, gap: float = 0.12) -> Effect:
        """Effect with at most five well-separated eigenvalue levels."""
        n = self.dim
        k = int(self.rng.integers(1, min(n, 5) + 1))
        levels = self._separated_values(k, gap)
        counts = np.ones(k, dtype=int)
        for _ in range(n - k):
            counts[self.rng.integers(0, k)] += 1
        return self.with_values(np.repeat(levels, counts))

    @_drawn
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

        def build() -> np.ndarray:
            frame = _value(u)
            return hermitian_part((frame * values) @ frame.conj().T)
        return self._later(build)

    @_drawn
    def with_top(self, ones: int) -> Effect:
        """Effect with an exact eigenvalue-one cluster of size ``ones`` and
        the other eigenvalues below 0.95."""
        n = self.dim
        ones = min(ones, n)
        values = np.concatenate([
            np.ones(ones),
            self.rng.uniform(0.0, 0.95, n - ones),
        ])
        return self.with_values(values)

    @_drawn
    def commuting_with(self, p: Effect, on=None, off=None) -> Effect:
        """Effect equal to ``on`` on p and to ``off`` on 1 - p; either left
        as None is drawn there."""
        if isinstance(p, _Pending):
            # p's eigensystem as its decomposition will sort it
            order = np.argsort(p.values, kind="stable")
            values, vectors = p.values[order], lambda: p.vectors()[:, order]
        else:
            d = p.decomposition
            values, vectors = d.values, lambda: d.vectors
        drawn = self.rng.uniform(0.0, 1.0, self.dim)
        vals = np.where(values > 0.5, drawn if on is None else on,
                        drawn if off is None else off)
        return self._known(vals, vectors)

    @_drawn
    def split_effect(self, frame: np.ndarray, k: int) -> Effect:
        """Effect commuting with the span of the first k columns of a
        frame."""
        qa, qb = self._unitary(k), self._unitary(self.dim - k)

        def vectors() -> np.ndarray:
            u = _value(frame)
            return np.concatenate([u[:, :k] @ qa.value, u[:, k:] @ qb.value],
                                  axis=1)
        return self._known(self.rng.uniform(0.0, 1.0, self.dim), vectors)

    @_drawn
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

    @_drawn
    def summable_pair(self) -> tuple[Effect, Effect]:
        """Two effects with a + b <= 1."""
        return self.effect(hi=0.5), self.effect(hi=0.5)

    @_drawn
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
        starts = np.cumsum(sizes) - sizes

        def refined() -> _Known:
            blocks = []
            vals = []
            for m in sizes:
                blocks.append(self._unitary(int(m)))
                vals.append(self.rng.uniform(0.0, 0.5, int(m)))

            def vectors() -> np.ndarray:
                frame = _value(u)
                return np.concatenate(
                    [frame[:, start:start + m] @ q.value
                     for q, start, m in zip(blocks, starts, sizes)], axis=1)
            return self._known(np.concatenate(vals), vectors)

        return c, refined(), refined()
