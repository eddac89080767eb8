"""The verifier's random draws on both models, and nothing else.

``EffectSampler`` draws matrix effects, frames, projections and numbers;
``FuzzySampler`` draws dyadic value arrays under the same names and
parameters, from the same stream, so one verifier statement serves both
models.  Each draw takes a run's sample indices and returns the run's
stack from array calls, each sample from a fixed slice of its stream.
The models' contexts live in their own modules (``matrices``,
``fuzzy``); only the verifier and the tests draw, so the command line's
element verbs never load this module or ``numpy.random``.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .config import DEFAULT, Tolerances
from .fuzzy import MAX_SPACE
from .linalg import EigenDecomposition, _sorted_system
from .matrices import Effect, _matrix


def _haar(z: np.ndarray) -> np.ndarray:
    """The Haar unitary of each member of a stack of Ginibre matrices.

    The QR factor, with the phases of R's diagonal moved into Q so that
    the law is exactly Haar (Mezzadri, Notices AMS 2007), in one LAPACK
    call with the same bits per member as one call each.  A Ginibre
    matrix that is zero off the diagonal blocks of a partition of the
    columns into runs gives a unitary with those blocks, each Haar.

    It calls the two gufuncs that ``numpy.linalg.qr`` calls, on a copy of
    the stack: ``qr_r_raw`` (zgeqrf) factors the copy in place, leaving R
    on and above its diagonal, and ``qr_reduced`` (zungqr) forms Q from
    the factored copy.  So Q and R's diagonal have every bit of the
    public function's, without its ``triu``, casts, error-state blocks and
    result tuple, which at dim 4 cost about as much as the factorization
    itself.  LAPACK clears its floating-point flags on finite input, so
    no warning is raised.
    """
    a = np.array(z, dtype=np.complex128)
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    d = np.diagonal(a, axis1=-2, axis2=-1)
    phases = (d / np.abs(d))[..., None, :]
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D") * phases


class EffectSampler:
    """Deterministic random matrices for tests and verifier suites.

    Every draw takes the global indices ``ks`` of a run's samples, which
    are consecutive, and returns their stack from array calls: effects as
    one ``Effect`` with its eigensystems, frames (Haar unitaries) as one
    ``(len(ks), n, n)`` array, numbers as one array.  An effect is a row of eigenvalues in a
    frame: one Box-Muller Ginibre stack, one stacked QR and one stacked
    reconstruct.

    Each law a draw calls reads the next position of the seed's stream,
    one Philox counter range per position (Salmon et al., SC 2011), in
    which sample k's uniforms are a fixed slice at k times the law's
    stride.  Normals (Box-Muller), integers (floor(u·m)) and random picks
    (the ranks of uniforms) are made from those uniforms alone, so a
    sample's draws have the same bits however the samples are split into
    runs, as long as each run makes the same calls on a fresh sampler.
    The draws have the names and parameters of ``FuzzySampler``'s,
    so one verifier statement serves both models, and those with one
    formula on both models are written once, here.
    """

    def __init__(self, seed: int | np.random.SeedSequence, dim: int,
                 tol: Tolerances = DEFAULT):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        self.tol = tol
        self._open(seed)

    def _open(self, seed) -> None:
        """Key the stream by the seed (an int or a SeedSequence), at its
        first position."""
        self._bits = np.random.Philox(seed)
        self._state = self._bits.state  # counter 0, an empty buffer
        self._words = np.random.Generator(self._bits)
        self._position = 0

    def _uniform(self, ks, *shape) -> np.ndarray:
        """Uniforms in [0, 1), ``(len(ks), *shape)``, for the consecutive
        sample indices ks, from the stream's next position, the third word
        of the Philox counter.  Sample k's are the words from k times the
        stride on, the stride being the size of ``shape`` rounded up to
        whole counter blocks of 4 words."""
        size = math.prod(shape)
        stride = -(-size // 4) * 4
        self._state["state"]["counter"] = np.array(
            [int(ks[0]) * stride // 4, 0, self._position, 0], dtype=np.uint64)
        self._bits.state = self._state
        self._position += 1
        rows = self._words.random((len(ks), stride))
        return rows[:, :size].reshape(len(ks), *shape)

    def integers(self, ks, lo, hi) -> np.ndarray:
        """An integer uniform in [lo, hi) per sample, each bound one for
        all or one per sample: floor(u·(hi - lo)) past lo."""
        lo = np.asarray(lo)
        return (lo + np.floor(self._uniform(ks) * (np.asarray(hi) - lo))
                ).astype(int)

    def _between(self, ks, lo, hi, *shape) -> np.ndarray:
        """Values uniform in [lo, hi]."""
        return lo + (hi - lo) * self._uniform(ks, *shape)

    def scalar(self, ks, lo=0.0, hi=1.0) -> np.ndarray:
        """A number in [lo, hi] per sample."""
        return self._between(ks, lo, hi)

    def _gaussian(self, ks, *shape) -> np.ndarray:
        """Complex normals, real and imaginary parts N(0, 1), from pairs
        of uniforms by Box-Muller."""
        u = self._uniform(ks, 2, *shape)
        return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.exp(2j * np.pi
                                                            * u[:, 1])

    def frame(self, ks) -> np.ndarray:
        """Haar unitaries; effects diagonal in one frame commute."""
        return _haar(self._gaussian(ks, self.dim, self.dim))

    def _blocks(self, ks, labels) -> np.ndarray:
        """Unitaries block-diagonal on the runs of equal labels (ascending
        along each row), each block Haar."""
        same = labels[..., :, None] == labels[..., None, :]
        return _haar(self._gaussian(ks, self.dim, self.dim) * same)

    def _in_frame(self, ks, values, frame=None) -> Effect:
        """The effects with these eigenvalues, one row per sample, on the
        columns of their frames, fresh ones where none is given: stably
        sorted, one stacked reconstruct."""
        if frame is None:
            frame = self.frame(ks)
        d = EigenDecomposition(*_sorted_system(values, frame), self.tol)
        return Effect(d.reconstruct(), tol=self.tol, decomposition=d)

    def _spectrum(self, p) -> tuple[np.ndarray, np.ndarray]:
        """A stack's eigenvalues and the frames they sit in."""
        d = p.decomposition
        return d.values, d.vectors

    def span(self, frame: np.ndarray, lo, hi):
        """The projection onto columns lo:hi of each frame, the bounds one
        for all or one per member."""
        cols = np.arange(self.dim)
        inside = ((np.asarray(lo)[..., None] <= cols)
                  & (cols < np.asarray(hi)[..., None]))
        return self._in_frame(None, np.broadcast_to(
            inside, (len(frame), self.dim)).astype(float), frame)

    def commuting(self, ks, *draws) -> tuple:
        """A stack of each draw, by default two effects, all diagonal in
        one frame per sample, so they commute; each draw takes ``frame=``."""
        u = self.frame(ks)
        return tuple(draw(ks, frame=u)
                     for draw in draws or (self.effect, self.effect))

    def effect(self, ks, lo=0.0, hi=1.0, frame=None):
        """Effects with spectra drawn from [lo, hi]."""
        return self._in_frame(ks, self._between(ks, lo, hi, self.dim), frame)

    def projection(self, ks, frame=None):
        """Projections of rank 1 to n - 1 (1 at n = 1) onto columns
        picked at random."""
        rank = self.integers(ks, 1, max(self.dim, 2))
        order = np.argsort(np.argsort(self._uniform(ks, self.dim), axis=-1),
                           axis=-1)
        return self._in_frame(ks, (order < rank[:, None]).astype(float),
                              frame)

    def with_values(self, ks, values):
        """Effects with the given spectrum, one for all samples or one row
        per sample, in fresh frames."""
        return self._in_frame(ks, np.broadcast_to(
            np.asarray(values, dtype=float), (len(ks), self.dim)).copy())

    def signed(self, ks) -> np.ndarray:
        """Hermitian elements, as raw arrays, with spectra in [-1, 1] and
        an exact kernel of dimension up to two, below the full dimension."""
        n = self.dim
        zeros = self.integers(ks, 0, min(2, n - 1) + 1)
        values = np.where(np.arange(n) < zeros[:, None], 0.0,
                          self._between(ks, -1.0, 1.0, n))
        return _matrix(self._in_frame(ks, values))

    def with_top(self, ks, ones):
        """Effects with an exact eigenvalue-one cluster of size ``ones``
        (one for all samples, or one per sample) and the other
        eigenvalues in [2⁻⁸, 0.95], none zero, so that the cover is the
        floor only where every eigenvalue is one."""
        n = self.dim
        values = np.where(np.arange(n) < np.asarray(ones)[..., None], 1.0,
                          self._between(ks, 2.0 ** -8, 0.95, n))
        return self._in_frame(ks, values)

    def commuting_with(self, ks, p, on=None, off=None):
        """Effects equal to ``on`` on p and to ``off`` on 1 - p, one per
        member of the stack of projections p; either left as None is
        drawn there."""
        values, frame = self._spectrum(p)
        drawn = self._between(ks, 0.0, 1.0, self.dim)
        return self._in_frame(ks, np.where(
            values > 0.5, drawn if on is None else on,
            drawn if off is None else off), frame)

    def orthogonal_pair(self, ks) -> tuple:
        """Two effects with orthogonal supports (their product vanishes):
        one frame, split after a count of 1 to n - 1 columns."""
        n = self.dim
        u = self.frame(ks)
        first = np.arange(n) < self.integers(ks, 1, max(n, 2))[:, None]
        x = self._between(ks, 0.05, 1.0, n)
        return (self._in_frame(ks, np.where(first, x, 0.0), u),
                self._in_frame(ks, np.where(first, 0.0, x), u))

    def _labels(self, ks, count) -> np.ndarray:
        """Each column's level, count levels per sample: the first count
        columns one each, the others a uniform one."""
        cols = np.arange(self.dim)
        count = count[:, None]
        return np.where(cols < count, cols, np.floor(
            self._uniform(ks, self.dim) * count).astype(int))

    def _levels(self, ks, count, most: int, gap: float) -> np.ndarray:
        """count ascending values in [0, 1] per sample, first in a row of
        ``most``, on a jittered grid with pairwise gaps >= 0.6*gap."""
        grid = np.arange(0.0, 1.0 + 1e-12, gap)
        if most > len(grid):
            raise ValueError("not enough grid room for requested separation")
        picks = np.argsort(self._uniform(ks, len(grid)), axis=-1)[:, :most]
        picks = np.sort(np.where(np.arange(most) < count[:, None], picks,
                                 len(grid) - 1), axis=-1)
        jitter = self._between(ks, -gap / 5.0, gap / 5.0, most)
        return np.clip(grid[picks] + jitter, 0.0, 1.0)

    def simple(self, ks, gap: float = 0.12):
        """Effects with at most five well-separated eigenvalue levels."""
        most = min(self.dim, 5)
        count = self.integers(ks, 1, most + 1)
        levels = self._levels(ks, count, most, gap)
        rows = np.arange(len(levels))[:, None]
        return self._in_frame(ks, levels[rows, self._labels(ks, count)])

    def split_effect(self, ks, frame: np.ndarray, k):
        """Effects commuting with the span of the first k columns of each
        frame, k one for all or one per member."""
        labels = np.arange(self.dim) >= np.asarray(k)[..., None]
        return self._in_frame(ks, self._between(ks, 0.0, 1.0, self.dim),
                              frame @ self._blocks(ks, labels))

    def summable_pair(self, ks) -> tuple:
        """Two effects with a + b <= 1."""
        return self.effect(ks, hi=0.5), self.effect(ks, hi=0.5)

    def refined_commuting(self, ks) -> tuple:
        """Triples (c, a, b) where a and b both commute with c and
        a + b <= 1.

        c has two or three constant blocks (one at n = 1) in one frame; a
        and b refine those blocks independently, so they rarely commute
        with each other.
        """
        n = self.dim
        most = min(n, 3)
        count = self.integers(ks, min(n, 2), most + 1)
        labels = np.sort(self._labels(ks, count), axis=-1)
        u = self.frame(ks)
        levels = self._levels(ks, count, most, 0.15)
        rows = np.arange(len(levels))[:, None]
        c = self._in_frame(ks, levels[rows, labels], u)
        a, b = (self._in_frame(ks, self._between(ks, 0.0, 0.5, n),
                               u @ self._blocks(ks, labels))
                for _ in range(2))
        return c, a, b


class FuzzySampler:
    """Deterministic dyadic fuzzy sets; all sampled values are multiples
    of 2^-8, so sums and products are exact in double precision.

    The draws are ``EffectSampler``'s, with its names and
    parameters and its stream: a stack per call, each sample from a fixed
    slice of the stream at each position, so one verifier statement
    serves both models.  The draws with one formula on both models are
    written there.  A frame here gives each point its place in an
    ordering, and a row of values in a frame gives each point the value
    at its place; every element is diagonal in every frame.
    """

    BITS = 8

    def __init__(self, seed: int | np.random.SeedSequence, space: int):
        if not 1 <= space <= MAX_SPACE:
            raise ValueError("space out of range")
        self.dim = space
        self.denom = 2 ** self.BITS
        self._open(seed)

    # The draws with one formula on both models, written once in
    # ``EffectSampler``.
    _open = EffectSampler._open
    _uniform = EffectSampler._uniform
    integers = EffectSampler.integers
    scalar = EffectSampler.scalar
    span = EffectSampler.span
    commuting = EffectSampler.commuting
    effect = EffectSampler.effect
    projection = EffectSampler.projection
    with_values = EffectSampler.with_values
    signed = EffectSampler.signed
    with_top = EffectSampler.with_top
    commuting_with = EffectSampler.commuting_with
    orthogonal_pair = EffectSampler.orthogonal_pair

    def _between(self, ks, lo, hi, *shape) -> np.ndarray:
        """Multiples of 2^-8 in [lo, hi], uniform."""
        d = self.denom
        lo, top = np.ceil(np.multiply(lo, d)), np.floor(np.multiply(hi, d))
        return (lo + np.floor(self._uniform(ks, *shape) * (top - lo + 1))) / d

    def frame(self, ks) -> np.ndarray:
        """Random places of the points, a permutation per sample."""
        return np.argsort(self._uniform(ks, self.dim), axis=-1)

    def _in_frame(self, ks, values, frame=None) -> np.ndarray:
        """The values, each row placed by its frame where one is given:
        point p takes the value at its place ``frame[p]``."""
        if frame is None:
            return values
        return values[np.arange(len(values))[:, None], frame]

    def _spectrum(self, p) -> tuple[np.ndarray, None]:
        return np.asarray(p), None

    def simple(self, ks, gap: float = 0.12) -> np.ndarray:
        """Any draw: a dyadic fuzzy set has its levels at least 2^-8
        apart, whatever the gap asked for."""
        return self.effect(ks)

    def split_effect(self, ks, frame: np.ndarray, k) -> np.ndarray:
        return self.effect(ks)

    def summable_pair(self, ks) -> tuple[np.ndarray, np.ndarray]:
        a = self._between(ks, 0.0, 1.0, self.dim)
        return a, self._between(ks, 0.0, 1.0 - a, self.dim)

    def refined_commuting(self, ks) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
        """Triples (c, a, b) with a + b + c <= 1; all elements commute."""
        a, b = self.summable_pair(ks)
        return self._between(ks, 0.0, 1.0 - a - b, self.dim), a, b
