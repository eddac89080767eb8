"""Property suites: instance checks of the algebraic laws on the models.

Each suite samples deterministic random inputs, evaluates one statement
per check, and reports integer pass counts with a first witness for any
failure.  Each runner takes one ``control`` switch, which runs the suite
on its one deliberately broken configuration (wrong product, soft focus,
cover for floor, merged clusters, corrupted tables), so that negative
controls can prove the checks are not vacuous.  A control runs only the
rows marked, where they are registered, as reading its switch; any other
would redraw the normal run's samples and pass.

Each statement is one row of ``STATEMENTS``, registered beside its body,
which is written once over the model protocol: the model's context
(``ctx``, ``matrices.MatrixContext`` or ``fuzzy.FuzzyContext``) supplies
the operations, and the statement's sampler (``smp``,
``sampling.EffectSampler`` or ``sampling.FuzzySampler``), seeded by its
id, the draws, under the same method names on both models.  A comparison is
``run.res(x, y) <= run.thr``, and that threshold is 0 on the mv model, so
every comparison there is exact.  What stays per model here is the
sampler lookup, the broken products and the planted control witnesses.

The runner calls each body once per run of samples, as many as keep a
stack of clusters to ``CHUNK_NUMBERS`` numbers: all of them at the sizes
in use, one at a time only at the largest.  A body draws first and checks
second: each draw takes the run's sample indices and returns one stack
with a leading sample axis, from array calls on a fresh sampler, each
sample reading a fixed slice of the stream at each draw position, so the
report does not depend on how the samples are split into runs.  Where
samples differ in kind (by parity, or the control's sample 0), both kinds
are drawn and a mask over the indices selects (``ctx.where``).  Every
statement then checks its run's samples at once: every verb and engine
call works member by member on the stacks, a premise is a mask over the
samples, and one ``tally`` takes the outcomes and residuals as arrays.
The ragged clusters of a stack come cluster first, padded past each
member's own, with the mask of each member's own clusters
(``linalg.Runs.own``, handed out by ``eigenprojections``); what is
decomposed per cluster is decomposed for the members' own clusters only
(``_on_own``), so no padding is decomposed, and a sum or maximum over the
clusters sees a member's own entries alone.  The ragged Lagrange nodes of ``thm:contexts.functions``
come first, padded past each member's own; the tables oracle tallies each
clause group of a table as one array.
"""
from __future__ import annotations

import dataclasses
import os
import traceback
import zlib
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import frobenius, hermitian_part, per_member
from .report import CheckResult, SuiteReport
from . import fuzzy as fz
from . import matrices as mx
from . import sampling as sm
from . import spectral as sp
from . import tables as tb

ARCHIMEDEAN_RESOLUTION = 1_000_000
FLOOR_POWER = 50
APPROX_LEVELS = 10
MESHES = (0.1, 0.01, 0.001)
# The numbers a statement's stack of clusters holds at most (see _run_rows).
CHUNK_NUMBERS = 1 << 18
# The negative controls' broken settings: each model's wrong sequential
# product, and the width within which the context control merges levels.
CONTROL_PRODUCT = {"matrix": "jordan", "mv": "lukasiewicz"}
MERGE_DELTA = 0.25


# ---------------------------------------------------------------------------
# the statement table

# Suite -> its rows, (statement id, body, control mark), in run order;
# ``_statement`` adds a row where the body is defined.  A body takes the
# suite's run, the model's context, its own seeded sampler and its tally.
# The mark is set on a row whose body reads the suite's switch (the run's
# ``control``, ``prod`` or ``planted``): a control runs those rows alone.
STATEMENTS: dict[str, list[tuple[str, Callable, bool]]] = {}


def _statement(suite: str, sid: str, control: bool = False):
    def register(body):
        STATEMENTS.setdefault(suite, []).append((sid, body, control))
        return body
    return register


def _seed_for(seed: int, suite: str, sid: str) -> np.random.SeedSequence:
    key = zlib.crc32(f"{suite}/{sid}".encode())
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))


class _Tally:
    """Per-statement accumulator; keeps the first failing witness.

    ``tally`` takes an array of outcomes, one per sample in sample order,
    with a residual (an array or one for all).  The witness is passed as a
    thunk that takes the index of the first failing sample and builds the
    witness dict; ``tally`` calls it only for the first failure, the one
    whose witness the report records, so passing samples encode nothing.
    While ``ks`` holds the run's sample indices, the witness records the
    failing one's as its ``sample``.
    """

    __slots__ = ("samples", "passed", "max_residual", "witness", "ks")

    def __init__(self):
        self.samples = 0
        self.passed = 0
        self.max_residual = 0.0
        self.witness = None
        self.ks = None

    def tally(self, ok: np.ndarray, residual=0.0,
              witness: Callable[[int], dict] | None = None) -> None:
        ok = ok.reshape(-1)
        passed = int(np.count_nonzero(ok))
        if passed < ok.size and self.witness is None:
            first = int(np.argmin(ok))
            self.witness = {} if self.ks is None else {
                "sample": int(self.ks[first])}
            if witness is not None:
                self.witness |= witness(first)
        self.samples += ok.size
        self.passed += passed
        # the largest residual, NaN skipped
        top = float(np.fmax.reduce(residual, axis=None,
                                   initial=self.max_residual))
        if top > self.max_residual:
            self.max_residual = top


def _spread(mask: np.ndarray, values, fill=0.0) -> np.ndarray:
    """Values found for the samples that a premise mask selects, placed
    among all the samples, with ``fill`` at the others."""
    values = np.asarray(values)
    out = np.full(mask.shape, fill, dtype=values.dtype)
    out[mask] = values
    return out


def _run_statement(report: SuiteReport, sid: str, body) -> None:
    t = _Tally()
    try:
        body(t)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        # The crash is the statement's whole report, and no one sample's,
        # whichever run of samples it ended: what the runs before it
        # tallied is dropped, so the report does not depend on the runs.
        t = _Tally()
        t.tally(np.zeros(1, dtype=bool), witness=lambda _: {
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})
    report.add(CheckResult(sid, report.model, t.samples, t.passed,
                           t.max_residual, t.witness))


def _witness(ctx, k: int, columns: dict) -> dict:
    """Each column's member k, an element encoded and a number as a Python
    number."""
    out = {}
    for key, column in columns.items():
        x = column[k]
        out[key] = (ctx.encode(x) if np.ndim(ctx.raw(x)) == ctx.element_ndim
                    else x.item())
    return out


def _res(ctx, m):
    """The residual of a raw element on its model: its Frobenius norm over
    its dimension, one per member of a stack."""
    m = np.asarray(m)
    return frobenius(m, ctx.element_ndim) / m.shape[-1]


@dataclasses.dataclass
class _Run:
    """What a suite run's statement bodies share; ``draws`` makes a fresh
    sampler seeded by a statement id, and ``run_*_suite`` fills in the
    settings."""

    ctx: object
    draws: Callable
    n: int = 0
    samples: int = 0
    tol: Tolerances = DEFAULT
    thr: float = 0.0  # the context's check threshold, 0 on the mv model
    comm: float = 0.0  # and its commutation threshold
    control: bool = False  # the suite's broken configuration
    prod: Callable | None = None  # sea: the sequential product under test
    planted: tuple | None = None  # sea: the S1 witness it plants
    degenerate_ties: int = 0  # spectrality: comparability ties
    algs: dict | None = None  # tables: the built-in algebras by name

    def res(self, x, y=None):
        """The residual of x, or of x - y; one per member of a stack."""
        return _res(self.ctx, x if y is None else self.ctx.sub(x, y))

    def sandwich(self, x, a):
        return self.ctx.mul(self.ctx.mul(x, a), x)


def _run_rows(report: SuiteReport, run: _Run) -> SuiteReport:
    """Run the suite's rows in table order, a control's marked rows alone,
    each body called once per run of sample indices, on a fresh sampler
    seeded by its statement id: as many as keep a run's stacks of clusters
    (at most n clusters of an n**element_ndim element per sample) to
    CHUNK_NUMBERS numbers.  The tables rows draw nothing and run once."""
    runs = [None]
    if run.ctx is not None:
        size = max(1, CHUNK_NUMBERS // run.n ** (run.ctx.element_ndim + 1))
        runs = np.split(np.arange(run.samples),
                        np.arange(size, run.samples, size))

    def each_run(sid, statement, t):
        for ks in runs:
            t.ks = ks
            statement(run, run.ctx, run.draws(sid), ks, t)

    for sid, statement, marked in STATEMENTS[report.suite]:
        if marked or not run.control:
            _run_statement(report, sid, lambda t: each_run(sid, statement, t))
    return report


# ---------------------------------------------------------------------------
# the models


def _products(model: str, ctx, n: int, control: bool):
    """The sequential product under test, the model's own or its control
    product (``CONTROL_PRODUCT``), with the S1 witness it plants."""
    if not control:
        return ctx.product, None
    if model == "matrix":
        # The symmetrized ordinary product (a b + b a) / 2: not a
        # sequential product, and its value need not be an effect.
        def jordan(x, y):
            xm, ym = ctx.raw(x), ctx.raw(y)
            return hermitian_part(xm @ ym + ym @ xm) / 2.0
        return jordan, None
    # Truncated, a (b + c) = 0.75 but a b + a c = 0.5, so the control
    # fails for every seed, not only lucky ones.
    half = np.full(n, 0.5)
    return ((lambda x, y: np.maximum(0.0, ctx.raw(x) + ctx.raw(y) - 1.0)),
            (np.full(n, 0.75), half, half))


def _suite(suite: str, model: str, n: int, samples: int, seed: int,
           tol: Tolerances, control: bool, **config):
    """Check the arguments and start a suite's report and its run."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if model == "matrix":
        limit, ctx, draws = mx.MAX_DIM, mx.MatrixContext(tol), (
            lambda sid: sm.EffectSampler(_seed_for(seed, suite, sid), n, tol))
    elif model == "mv":
        limit, ctx, draws = fz.MAX_SPACE, fz.FuzzyContext(tol), (
            lambda sid: sm.FuzzySampler(_seed_for(seed, suite, sid), n))
    else:
        raise ValueError(f"unknown model {model!r}")
    if not 1 <= n <= limit:
        raise ValueError(f"dim_or_size {n} out of range: the {model} model "
                         f"takes 1 to {limit}")
    omitted = control_omitted(suite, model, n) if control else None
    if omitted:
        raise ValueError(omitted)
    report = SuiteReport(
        suite=suite, model=model, seed=seed,
        config={"dim_or_size": n, "samples": samples, **config,
                "tolerances": tol.to_dict()})
    if control:
        report.metadata["negative_control"] = True
    return report, _Run(ctx, draws, n, samples, tol, ctx.tol.check,
                        ctx.tol.comm, control)


def _three_orthogonal(smp, ks, n: int) -> tuple[list, list]:
    """Three orthogonal projections on consecutive runs of one frame per
    sample, the first two nonempty where the dimension allows, with their
    ranks, one per sample."""
    u = smp.frame(ks)
    k1 = smp.integers(ks, 1, max(n, 2))
    k2 = smp.integers(ks, np.minimum(1, n - k1), n - k1 + 1)
    k3 = smp.integers(ks, 0, n - k1 - k2 + 1)
    cuts = (0, k1, k1 + k2, k1 + k2 + k3)
    spans = [smp.span(u, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return spans, [k1, k2, k3]


def _either(ctx, mask, these, those) -> tuple:
    """Draws of two kinds, position by position: these where the mask
    over the samples holds and those elsewhere."""
    return tuple(ctx.where(mask, x, y) for x, y in zip(these, those))


# ---------------------------------------------------------------------------
# SEA suite


def _mackey(ctx, p, a, inside) -> tuple[np.ndarray, np.ndarray]:
    """Mackey compatibility of a projection and an effect, or of each pair
    of members, given c = p a p (``inside``): whether a - c is positive,
    and whether 1 - a - p + c is too (tested where the first holds)."""
    rest = ctx.add(ctx.sub(ctx.sub(ctx.one_like(a), a), p), inside)
    below = np.array(ctx.leq(inside, a))
    ok = below.copy()
    if ok.any():
        ok[ok] = ctx.leq(ctx.zero_like(a), rest[ok])
    return below, ok


def _five_way(ctx, p, a) -> dict:
    """The five equivalent compatibility statements for a projection and
    an effect, or for each pair of members, each evaluated independently:
    booleans keyed by statement, plus the largest residual among the
    equality-shaped clauses."""
    praw, araw, mul = ctx.raw(p), ctx.raw(a), ctx.mul
    thr = ctx.tol.check
    inside = ctx.compress(praw, araw)
    comp = ctx.complement(praw)
    r_block = _res(ctx, ctx.sub(ctx.sub(araw, inside),
                                mul(mul(comp, araw), comp)))
    r_off = _res(ctx, mul(mul(praw, araw), comp))
    residual = np.array(np.maximum(np.minimum(r_block, thr),
                                   np.minimum(r_off, thr)))
    meet = np.array(ctx.commutes(p, a))
    if meet.any():
        r_meet = _res(ctx, ctx.sub(inside[meet], ctx.meet(p[meet], a[meet])))
        residual[meet] = np.maximum(residual[meet], np.minimum(r_meet, thr))
        meet[meet] = r_meet <= thr
    below, mackey = _mackey(ctx, praw, araw, inside)
    return {key: per_member(x) for key, x in (
        ("compress_below", below),
        ("block_sum", r_block <= thr),
        ("interval_sum", r_off <= thr),
        ("mackey", mackey),
        ("meet", meet),
        ("residual", residual))}


@_statement("sea", "S1", control=True)
def _s1(run, ctx, smp, ks, t: _Tally) -> None:
    a, (b, c) = smp.effect(ks), smp.summable_pair(ks)
    if run.planted is not None:
        a, b, c = _either(ctx, ks == 0, run.planted, (a, b, c))
    bc = ctx.element(ctx.add(b, c))
    r = run.res(ctx.sub(run.prod(a, bc), run.prod(a, b)), run.prod(a, c))
    t.tally(r <= run.thr, r,
            lambda k: _witness(ctx, k, {"a": a, "b": b, "c": c}))


@_statement("sea", "S2", control=True)
def _s2(run, ctx, smp, ks, t: _Tally) -> None:
    one = ctx.unit(run.n)
    a = smp.effect(ks)
    r = np.maximum(run.res(run.prod(one, a), a), run.res(run.prod(a, one), a))
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {"a": a}))


@_statement("sea", "S3", control=True)
def _s3(run, ctx, smp, ks, t: _Tally) -> None:
    # Even samples: ab vanishes exactly when ba does; odd ones: ab is an
    # effect.
    even = ks % 2 == 0
    a, b = _either(ctx, even, smp.orthogonal_pair(ks),
                   (smp.effect(ks), smp.effect(ks)))
    ab = run.prod(a, b)
    r_ab = _spread(even, run.res(ab[even]))
    r_ba = _spread(even, run.res(run.prod(b[even], a[even])))
    agree = (r_ab <= run.thr) == (r_ba <= run.thr)
    lo, hi = (_spread(~even, x) for x in ctx.extremes(ab[~even]))
    escape = np.maximum(np.maximum(0.0, -lo), hi - 1.0)
    t.tally(np.where(even, agree, escape <= ctx.tol.psd + run.thr),
            np.where(even, np.where(agree, 0.0, np.maximum(r_ab, r_ba)),
                     escape),
            lambda k: _witness(ctx, k, {"a": a, "b": b} | (
                {"forward": r_ab, "backward": r_ba} if even[k]
                else {"min_eigenvalue": lo, "max_eigenvalue": hi})))


@_statement("sea", "S4", control=True)
def _s4(run, ctx, smp, ks, t: _Tally) -> None:
    (a, b), c = smp.commuting(ks), smp.effect(ks)
    # The premise: a and b commute sequentially.
    m = ~(run.res(run.prod(a, b), run.prod(b, a)) > run.comm)
    am, bm, cm = a[m], b[m], c[m]
    bperp = ctx.complement(bm)
    r1 = _spread(m, run.res(run.prod(am, bperp), run.prod(bperp, am)))
    r2 = _spread(m, run.res(run.prod(am, ctx.element(run.prod(bm, cm))),
                            run.prod(ctx.element(run.prod(am, bm)), cm)))
    r = np.maximum(r1, r2)
    t.tally(~m | (r <= run.thr), r, lambda k: _witness(ctx, k, {
        "a": a, "b": b, "c": c, "complement": r1, "associativity": r2}))


@_statement("sea", "S5", control=True)
def _s5(run, ctx, smp, ks, t: _Tally) -> None:
    c, a, b = smp.refined_commuting(ks)
    # The premise: c commutes sequentially with a and with b.
    m = ~((run.res(run.prod(c, a), run.prod(a, c)) > run.comm)
          | (run.res(run.prod(c, b), run.prod(b, c)) > run.comm))
    cm, am, bm = c[m], a[m], b[m]
    ab = ctx.element(run.prod(am, bm))
    asum = ctx.element(ctx.add(am, bm))
    r = _spread(m, np.maximum(run.res(run.prod(cm, ab), run.prod(ab, cm)),
                              run.res(run.prod(cm, asum),
                                      run.prod(asum, cm))))
    t.tally(~m | (r <= run.comm), r,
            lambda k: _witness(ctx, k, {"c": c, "a": a, "b": b}))


@_statement("sea", "le:aff", control=True)
def _aff(run, ctx, smp, ks, t: _Tally) -> None:
    a, b, lam = smp.effect(ks), smp.effect(ks), smp.scalar(ks)
    ca, cb = smp.commuting(ks)
    scaled = ctx.scale(lam, run.prod(a, b))
    r1 = run.res(run.prod(a, ctx.scale(lam, b)), scaled)
    r2 = run.res(run.prod(ctx.scale(lam, a), b), scaled)
    clb = ctx.scale(lam, cb)
    r3 = run.res(run.prod(ca, clb), run.prod(clb, ca))
    ok = (r1 <= run.thr) & (r2 <= run.thr) & (r3 <= run.comm)
    t.tally(ok, np.maximum(np.maximum(r1, r2), r3),
            lambda k: _witness(ctx, k, {"lambda": lam, "a": a, "b": b}))


@_statement("sea", "convex:C1")
def _convex_c1(run, ctx, smp, ks, t: _Tally) -> None:
    a, lam, mu = smp.effect(ks), smp.scalar(ks), smp.scalar(ks)
    r = run.res(ctx.scale(mu, ctx.scale(lam, a)), ctx.scale(lam * mu, a))
    t.tally(r <= run.thr, r,
            lambda k: _witness(ctx, k, {"lambda": lam, "mu": mu}))


@_statement("sea", "convex:C2")
def _convex_c2(run, ctx, smp, ks, t: _Tally) -> None:
    a, lam = smp.effect(ks), smp.scalar(ks)
    mu = smp.scalar(ks, 0.0, 1.0 - lam)
    r = run.res(ctx.add(ctx.scale(lam, a), ctx.scale(mu, a)),
                ctx.scale(lam + mu, a))
    t.tally(r <= run.thr, r,
            lambda k: _witness(ctx, k, {"lambda": lam, "mu": mu}))


@_statement("sea", "convex:C3")
def _convex_c3(run, ctx, smp, ks, t: _Tally) -> None:
    (a, b), lam = smp.summable_pair(ks), smp.scalar(ks)
    s = ctx.element(ctx.add(a, b))
    r = run.res(ctx.sub(ctx.scale(lam, s), ctx.scale(lam, a)),
                ctx.scale(lam, b))
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {"lambda": lam}))


@_statement("sea", "convex:C4")
def _convex_c4(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.effect(ks)
    r = run.res(ctx.scale(1.0, a), a)
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {}))


@_statement("sea", "le:sharp.i", control=True)
def _sharp_i(run, ctx, smp, ks, t: _Tally) -> None:
    a = ctx.where(ks % 2 == 0, smp.projection(ks), smp.effect(ks))
    sharp = ctx.is_sharp(a)
    kills = run.res(run.prod(a, ctx.complement(a))) <= run.thr
    idem = run.res(run.prod(a, a), a) <= run.thr
    t.tally((sharp == kills) & (kills == idem), 0.0,
            lambda k: _witness(ctx, k, {"a": a, "sharp": sharp,
                                        "kills_complement": kills,
                                        "idempotent": idem}))


@_statement("sea", "le:sharp.ii", control=True)
def _sharp_ii(run, ctx, smp, ks, t: _Tally) -> None:
    p = smp.projection(ks)
    a = ctx.where(ks % 2 == 0, smp.commuting_with(ks, p, on=1.0),
                  smp.effect(ks))
    below = ctx.leq(p, a)
    rp = np.maximum(run.res(run.prod(p, a), p), run.res(run.prod(a, p), p))
    t.tally(below == (rp <= run.thr), 0.0, lambda k: _witness(ctx, k, {
        "p": p, "a": a, "order": below, "product_residual": rp}))


@_statement("sea", "le:sharp.iii", control=True)
def _sharp_iii(run, ctx, smp, ks, t: _Tally) -> None:
    p = smp.projection(ks)
    a = ctx.where(ks % 2 == 0, smp.commuting_with(ks, p, off=0.0),
                  smp.effect(ks))
    below = ctx.leq(a, p)
    rp = np.maximum(run.res(run.prod(p, a), a), run.res(run.prod(a, p), a))
    t.tally(below == (rp <= run.thr), 0.0, lambda k: _witness(ctx, k, {
        "p": p, "a": a, "order": below, "product_residual": rp}))


@_statement("sea", "le:sharp.iv", control=True)
def _sharp_iv(run, ctx, smp, ks, t: _Tally) -> None:
    one = ctx.unit(run.n)
    # Even samples compare covers of an orthogonal pair (every fourth
    # keeps the second effect itself); odd ones a projection and an effect.
    even = ks % 2 == 0
    x, y = _either(ctx, even, smp.orthogonal_pair(ks),
                   (smp.projection(ks), smp.effect(ks)))
    p = ctx.where(even, ctx.cover(x), x)
    a = ctx.where(ks % 4 == 2, ctx.cover(y), y)
    total = ctx.add(p, a)
    vanish = run.res(run.prod(p, a)) <= run.thr
    summable = ctx.leq(total, one)
    ok = vanish == summable
    # Where both hold, p + a is their join, sharp exactly when a is; the
    # join is taken of commuting pairs only, which any pair whose product
    # vanishes is, unless the check is loose enough to pass one that
    # does not.
    joined = ok & vanish & ctx.commutes(p, a)
    r_join = np.zeros(len(ks))
    if joined.any():
        r = run.res(total[joined], ctx.join(p[joined], a[joined]))
        same = ctx.is_sharp(total[joined]) == ctx.is_sharp(a[joined])
        r_join = _spread(joined, r)
        ok = ok & _spread(joined, (r <= run.thr) & same, True)

    t.tally(ok, r_join, lambda k: _witness(ctx, k, {"p": p, "a": a} | (
        {"join_residual": r_join} if joined[k]
        else {"vanishes": vanish, "summable": summable})))


@_statement("sea", "le:sharp.v", control=True)
def _sharp_v(run, ctx, smp, ks, t: _Tally) -> None:
    p, a = smp.commuting(ks, smp.projection, smp.effect)
    a = ctx.where(ks % 2 == 0, a, smp.effect(ks))
    commute = run.res(run.prod(p, a), run.prod(a, p)) <= run.comm
    _, mackey = _mackey(ctx, p, a, ctx.compress(p, a))
    t.tally(commute == mackey, 0.0, lambda k: _witness(ctx, k, {
        "p": p, "a": a, "commutes": commute, "mackey": mackey}))


@_statement("sea", "le:sharp.vi", control=True)
def _sharp_vi(run, ctx, smp, ks, t: _Tally) -> None:
    p, a = smp.commuting(ks, smp.projection, smp.effect)
    r = run.res(run.prod(p, a), ctx.meet(p, a))
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {"p": p, "a": a}))


@_statement("sea", "de:strongarch")
def _strongarch(run, ctx, smp, ks, t: _Tally) -> None:
    bound = 2.0 / ARCHIMEDEAN_RESOLUTION
    a, b = smp.effect(ks), smp.effect(ks)
    least = ctx.extremes(ctx.sub(b, a))[0]
    # The premise: a is not below b up to the resolution.
    m = ~(least >= -bound)
    steps = np.minimum(ARCHIMEDEAN_RESOLUTION,
                       2 * np.ceil(1.0 / -least[m]))
    gap = ctx.extremes(ctx.sub(ctx.shift(b[m], -1.0 / steps), a[m]))[0]
    steps, gap = _spread(m, steps.astype(int)), _spread(m, gap)
    t.tally(~m | (gap < 0.0), 0.0, lambda k: _witness(ctx, k, {
        "n": steps, "min_eigenvalue": least, "shifted_min_eigenvalue": gap}))


def run_sea_suite(model: str = "matrix", dim_or_size: int = 4,
                  samples: int = 200, seed: int = 42,
                  tol: Tolerances = DEFAULT,
                  control: bool = False) -> SuiteReport:
    """Sequential-product axioms, affinity, sharpness, archimedeanity; the
    control runs the rows that take the product, S1-S5, ``le:aff`` and
    ``le:sharp.i``-``vi``, on the model's ``CONTROL_PRODUCT``."""
    report, run = _suite(
        "sea", model, dim_or_size, samples, seed, tol, control,
        product=CONTROL_PRODUCT.get(model) if control else "standard",
        archimedean_resolution=ARCHIMEDEAN_RESOLUTION)
    run.prod, run.planted = _products(model, run.ctx, dim_or_size, control)
    return _run_rows(report, run)


# ---------------------------------------------------------------------------
# compression suite


@_statement("compression", "de:compr", control=True)
def _compr(run, ctx, smp, ks, t: _Tally) -> None:
    projection = not run.control
    zero = ctx.element(ctx.zero_like(ctx.unit(run.n)))

    f = (smp.projection(ks) if projection
         else smp.effect(ks, lo=0.3, hi=0.7))
    a, b = smp.summable_pair(ks)
    inker = smp.commuting_with(ks, f, on=0.0) if projection else zero
    generic = smp.effect(ks)

    def jmap(x):
        return ctx.product(f, x)

    r_add = run.res(ctx.sub(jmap(ctx.element(ctx.add(a, b))), jmap(a)),
                    jmap(b))
    below = ctx.element(jmap(f))
    r_retract = run.res(jmap(below), below)
    fperp = ctx.complement(ctx.raw(f))
    kernel_ok = (run.res(jmap(inker)) <= run.thr) == ctx.leq(inker, fperp)
    generic_ok = ((run.res(jmap(generic)) <= run.thr)
                  == ctx.leq(generic, fperp))
    r = np.maximum(r_add, r_retract)
    t.tally((r <= run.thr) & kernel_ok & generic_ok, r,
            lambda k: _witness(ctx, k, {
                "focus": f, "additivity": r_add, "retraction": r_retract,
                "kernel_clause": kernel_ok, "generic_clause": generic_ok}))


@_statement("compression", "cb:C1")
def _cb_c1(run, ctx, smp, ks, t: _Tally) -> None:
    unit = ctx.unit(run.n)
    p = smp.projection(ks)
    r = run.res(ctx.compress(p, unit), p)
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {"p": p}))


@_statement("compression", "cb:C2p")
def _cb_c2p(run, ctx, smp, ks, t: _Tally) -> None:
    (p, q), a = (smp.commuting(ks, smp.projection, smp.projection),
                 smp.effect(ks))
    praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
    pq = ctx.mul(praw, qraw)
    r = run.res(run.sandwich(praw, run.sandwich(qraw, araw)),
                ctx.mul(ctx.mul(pq, araw), ctx.adjoint(pq)))
    idem = run.res(ctx.mul(pq, pq), pq)
    t.tally((r <= ctx.tol.comm) & (idem <= ctx.tol.proj), np.maximum(r, idem),
            lambda k: _witness(ctx, k, {"p": p, "q": q}))


@_statement("compression", "cb:C3")
def _cb_c3(run, ctx, smp, ks, t: _Tally) -> None:
    ((p, q, rr), sizes), a = (_three_orthogonal(smp, ks, run.n),
                              smp.effect(ks))
    araw = ctx.raw(a)
    composed = run.sandwich(ctx.add(p, q),
                            run.sandwich(ctx.add(q, rr), araw))
    r = run.res(composed, run.sandwich(ctx.raw(q), araw))
    t.tally(r <= run.thr, r,
            lambda k: {"sizes": [int(size[k]) for size in sizes]})


@_statement("compression", "le:comE")
def _com_e(run, ctx, smp, ks, t: _Tally) -> None:
    keys = ("compress_below", "block_sum", "interval_sum", "mackey",
            "meet")
    p, a = smp.commuting(ks, smp.projection, smp.effect)
    a = ctx.where(ks % 2 == 0, a, smp.effect(ks))
    stmts = _five_way(ctx, p, a)
    agree = np.all([stmts[key] == stmts[keys[0]] for key in keys], axis=0)
    t.tally(agree, stmts["residual"], lambda k: _witness(ctx, k, {
        "p": p, "a": a}) | {"statements": {key: stmts[key][k].item()
                                          for key in keys}})


@_statement("compression", "lemma:compatible_projs.i")
def _compat_i(run, ctx, smp, ks, t: _Tally) -> None:
    if run.n < 2:
        t.tally(np.ones(len(ks), dtype=bool))
        return

    u = smp.frame(ks)
    k1 = smp.integers(ks, 1, run.n)
    k2 = smp.integers(ks, 1, run.n - k1 + 1)
    p, q = smp.span(u, 0, k1), smp.span(u, k1, k1 + k2)
    a = smp.split_effect(ks, u, k1)
    araw = ctx.raw(a)
    osum = ctx.add(p, q)
    r_join = run.res(ctx.join(p, q), osum)
    rhs = ctx.add(run.sandwich(ctx.raw(p), araw),
                  run.sandwich(ctx.raw(q), araw))
    r = np.maximum(r_join, run.res(run.sandwich(osum, araw), rhs))
    t.tally(r <= run.thr, r,
            lambda k: _witness(ctx, k, {"p": p, "q": q, "a": a}))


@_statement("compression", "lemma:compatible_projs.ii")
def _compat_ii(run, ctx, smp, ks, t: _Tally) -> None:
    (p, q), a = (smp.commuting(ks, smp.projection, smp.projection),
                 smp.effect(ks))
    praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
    meet = ctx.mul(praw, qraw)
    x = run.sandwich(praw, run.sandwich(qraw, araw))
    y = run.sandwich(qraw, run.sandwich(praw, araw))
    z = ctx.mul(ctx.mul(meet, araw), ctx.adjoint(meet))
    r = np.maximum(np.maximum(run.res(x, y), run.res(x, z)),
                   run.res(meet, ctx.meet(p, q)))
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {"p": p, "q": q}))


def run_compression_suite(model: str = "matrix", dim_or_size: int = 4,
                          samples: int = 200, seed: int = 42,
                          tol: Tolerances = DEFAULT,
                          control: bool = False) -> SuiteReport:
    """Compression-base axioms and the compatibility equivalences; the
    control runs ``de:compr`` alone, with a soft effect for its focus in
    place of a projection."""
    report, run = _suite(
        "compression", model, dim_or_size, samples, seed, tol, control,
        focus="soft" if control else "projection")
    return _run_rows(report, run)


# ---------------------------------------------------------------------------
# spectrality suite


def _on_own(own: np.ndarray, fn, *stacks) -> np.ndarray:
    """fn of the entries of cluster-first stacks that ``own`` marks, one
    call on all of them, as a stack again: past a member's own entries its
    last own one is repeated, which leaves any all or max over the
    clusters as it was."""
    out = fn(*(x[own] for x in stacks))
    grid = np.zeros(own.shape + out.shape[1:], dtype=out.dtype)
    grid[own] = out
    last = np.count_nonzero(own, axis=0) - 1
    pick = np.minimum(np.arange(len(own)).reshape(-1, *(1,) * last.ndim),
                      last)
    return np.take_along_axis(
        grid, pick.reshape(*pick.shape, *(1,) * (out.ndim - 1)), axis=0)


def _rickart_family(a, rep, ctx) -> sp.SpectralFamily:
    """Reference family from the definition: p_λ is the Rickart projection
    of (a - λ)⁺, freshly decomposed at each coefficient λ of each
    member's reduced representation ``rep`` (the shifts as one stack)."""
    values = rep.coefficients
    steps = _on_own(rep.own, lambda x: ctx.rickart(ctx.positive_part(x)),
                    ctx.shift(a, values))
    return sp.SpectralFamily(
        values, np.concatenate([np.zeros_like(steps[:1]), steps]))


def _most(*residuals):
    """Each sample's largest residual in some arrays, the samples on
    their last axis: NaN skipped, and 0 where none is a number, as a
    running ``max(worst, r)`` from 0 keeps it."""
    out = 0.0
    for r in residuals:
        r = np.asarray(r)
        out = np.fmax(out, np.fmax.reduce(r.reshape(-1, r.shape[-1]),
                                          axis=0, initial=0.0))
    return out


@_statement("spectrality", "prop:decomp")
def _decomp(run, ctx, smp, ks, t: _Tally) -> None:
    v = smp.signed(ks)
    dec = sp.orthogonal_decomposition(v, ctx)
    # v = v⁺ - v⁻, then each sign witness q gives the same parts
    rs = [run.res(v, ctx.sub(dec.v_plus, dec.v_minus))]
    for q in dec.witnesses:
        comp = ctx.complement(q)
        vp = ctx.mul(ctx.mul(q, v), q)
        vm = -ctx.mul(ctx.mul(comp, v), comp)
        r1, r2 = run.res(vp, dec.v_plus), run.res(vm, dec.v_minus)
        rs.append(np.where(r2 > r1, r2, r1))
    rs = np.array(rs)
    t.tally(np.all(rs <= run.thr, axis=0), _most(rs),
            lambda k: _witness(ctx, k, {"v": v}))


@_statement("spectrality", "coro:limit")
def _limit(run, ctx, smp, ks, t: _Tally) -> None:
    levels = np.arange(1, APPROX_LEVELS + 1)
    a = smp.effect(ks)
    # (sample, level) stacks of staircases, from the clusters.
    stairs = sp.simple_approximation(a, levels, ctx)
    # One decomposition of a - a_n gives its norm and its sign.
    low, high = ctx.extremes(ctx.sub(ctx.raw(a)[:, None], stairs))
    gap = np.maximum(np.abs(low), np.abs(high))
    over = np.max(gap - 2.0 ** -levels, axis=-1)
    ok = (np.all(gap <= 2.0 ** -levels + run.thr, axis=-1)
          & np.all(low >= -run.thr, axis=-1))
    if ok.any():
        ok[ok] = np.all(ctx.leq(stairs[ok, :-1], stairs[ok, 1:]), axis=-1)
    t.tally(ok, np.where(over > 0.0, over, 0.0),
            lambda k: _witness(ctx, k, {"a": a}))


@_statement("spectrality", "eq:spectprojs")
def _spectprojs(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.simple(ks)
    rep = sp.reduced_representation(a, ctx)
    fam = sp.family_from_representation(rep.coefficients, rep.projections)
    ref = _rickart_family(a, rep, ctx)
    bps, own = fam.breakpoints, rep.own
    ok = np.all(np.abs(bps - ref.breakpoints) <= run.thr, axis=0)
    steps = fam.projections
    ok &= np.all(_on_own(own, ctx.leq, steps[:-1], steps[1:]), axis=0)
    eigs = _on_own(own, lambda x, lam: sp.eigenprojection(x, lam, ctx),
                   np.broadcast_to(ctx.raw(a), steps[1:].shape), bps)
    r_jump = np.where(own, run.res(np.diff(steps, axis=0), eigs), 0.0)
    r_step = run.res(steps, ref.projections)
    ok &= np.all(r_jump <= run.thr, axis=0)
    ok &= np.all(r_step <= run.thr, axis=0)
    one = ctx.one_like(a)
    ok &= (ctx.leq(ctx.scale(fam.L, one), a)
           & ctx.leq(a, ctx.scale(fam.U, one)))
    ok &= ctx.proj_rank(fam.at(fam.L - 0.25)) == 0
    ok &= ctx.proj_rank(fam.at(fam.U)) == run.n
    # between each pair of breakpoints the family is constant
    mids = (bps[:-1] + bps[1:]) / 2.0
    ok &= np.all(run.res(fam.at(mids), fam.at(mids + 1e-12)) <= run.thr,
                 axis=0)
    t.tally(ok, _most(r_jump, r_step), lambda k: _witness(ctx, k, {"a": a}))


@_statement("spectrality", "eq:spectresV")
def _spectres(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.effect(ks)
    meshes = np.array(MESHES)[:, None]
    fam = sp.spectral_family(a, ctx)
    sums = np.stack([sp.reconstruct(fam)]
                    + [sp.reconstruct(fam, mesh) for mesh in MESHES])
    r0, *gaps = ctx.norm(ctx.sub(a, sums))
    gaps = np.array(gaps)
    worst = r0
    for gap in np.where(gaps > meshes, gaps, 0.0):
        worst = np.where(gap > worst, gap, worst)
    t.tally((r0 <= run.thr) & np.all(gaps <= meshes + run.thr, axis=0),
            worst, lambda k: _witness(ctx, k, {
                "a": a, "breakpoint_residual": r0}))


@_statement("spectrality", "de:projcov")
def _projcov(run, ctx, smp, ks, t: _Tally) -> None:
    a, lam = smp.simple(ks), smp.scalar(ks, 0.05, 1.0)
    cover = ctx.cover(a)
    # Every sub-sum of the eigenprojections (the first 16) lies
    # above a exactly when it lies above the cover.
    _, projs, own = ctx.eigenprojections(a)
    sums = []
    for mask in range(min(2 ** len(projs), 16)):
        q = np.zeros_like(projs[0])
        for i, proj in enumerate(projs):
            if mask >> i & 1:
                q = ctx.add(q, proj)
        sums.append(q)
    sums = np.stack(sums)
    # a member's own sub-sums: those of its own clusters
    mine = np.arange(len(sums))[:, None] < 2 ** np.minimum(
        4, np.count_nonzero(own, axis=0))
    same = _on_own(mine, lambda x, y, q: ctx.leq(x, q) == ctx.leq(y, q),
                   *np.broadcast_arrays(ctx.raw(a), ctx.raw(cover), sums))
    r = run.res(ctx.cover(ctx.scale(lam, a)), cover)
    t.tally(ctx.leq(a, cover) & np.all(same, axis=0) & (r <= run.thr), r,
            lambda k: _witness(ctx, k, {"a": a, "lambda": lam}))


@_statement("spectrality", "lemma:projcover")
def _projcover_lemma(run, ctx, smp, ks, t: _Tally) -> None:
    a, b = _either(ctx, ks % 2 == 0, smp.orthogonal_pair(ks),
                   (smp.effect(ks), smp.effect(ks)))
    r1 = run.res(ctx.product(a, b))
    r2 = run.res(ctx.product(ctx.cover(a), b))
    t.tally((r1 <= run.thr) == (r2 <= run.thr), 0.0,
            lambda k: _witness(ctx, k, {"a": a, "b": b, "effect_product": r1,
                                        "cover_product": r2}))


@_statement("spectrality", "lemma:covex_floor", control=True)
def _covex_floor(run, ctx, smp, ks, t: _Tally) -> None:
    # even samples with a top cluster of up to n - 1 ones, odd ones none
    a = smp.with_top(ks, np.where(ks % 2 == 0,
                                  smp.integers(ks, 0, run.n), 0))
    values, projs, _ = ctx.eigenprojections(a)
    top = sp.kept_sum(ctx, values >= 1.0 - ctx.tol.cluster, projs)
    r1 = run.res((ctx.cover if run.control else ctx.floor)(a), top)
    r2 = run.res(ctx.floor(ctx.complement(a)),
                 ctx.complement(ctx.raw(ctx.cover(a))))
    r = np.where(r2 > r1, r2, r1)
    t.tally(r <= run.thr, r, lambda k: _witness(ctx, k, {
        "a": a, "cluster_route": r1, "duality": r2}))


@_statement("spectrality", "lemma:floor", control=True)
def _floor_lemma(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.with_top(ks, smp.integers(ks, 1, run.n + 1))
    flr = (ctx.cover if run.control else ctx.floor)(a)
    powers = ctx.powers(a, FLOOR_POWER)
    # One decomposition of aᴺ - floor gives its norm and its sign.
    low, high = ctx.extremes(ctx.sub(powers[:, -1], flr))
    gap = np.maximum(np.abs(low), np.abs(high))
    ok = (np.all(ctx.leq(powers[:, 1:4], powers[:, :3]), axis=-1)
          & (low >= -ctx.tol.check))
    values = ctx.eigenprojections(a)[0]
    below = values < 1.0 - ctx.tol.cluster
    # the largest cluster value below one, or 0 if there is none
    mu_max = np.where(below.any(axis=0), np.max(np.where(
        below, values, -np.inf), axis=0), 0.0).tolist()
    # Powers of a float round, on the mv model too, so the rate bound
    # keeps the given check tolerance.
    bound = np.array([mu ** FLOOR_POWER + run.tol.check for mu in mu_max])
    t.tally(ok & (gap <= bound), gap, lambda k: _witness(ctx, k, {
        "a": a, "rate_gap": gap, "rate_bound": bound}))


@_statement("spectrality", "de:b-compar")
def _b_compar(run, ctx, smp, ks, t: _Tally) -> None:
    # A generic pair (every fourth) has a witness exactly when it commutes,
    # which on the mv model it always does; one that does not passes.
    generic = ks % 4 == 3
    e, f = smp.commuting(ks)
    f = ctx.where(generic, smp.effect(ks), f)
    has = ~generic | ctx.commutes(e, f)
    ok = np.ones(len(has), dtype=bool)
    if has.any():
        es, fs = e[has], f[has]
        wit = sp.comparability_witness(es, fs, ctx)
        run.degenerate_ties += int(np.count_nonzero(wit.degenerate))
        comp = ctx.complement(wit.p)
        ok[has] = (ctx.leq(ctx.compress(wit.p, es), ctx.compress(wit.p, fs))
                   & ctx.leq(ctx.compress(comp, fs), ctx.compress(comp, es)))
    t.tally(ok, 0.0, lambda k: _witness(ctx, k, {"e": e, "f": f}))


@_statement("spectrality", "prop:commut")
def _commut(run, ctx, smp, ks, t: _Tally) -> None:
    a, b = smp.commuting(ks)
    b = ctx.where(ks % 2 == 0, b, smp.effect(ks))
    sequential = ctx.residual(ctx.product(a, b),
                              ctx.product(b, a)) <= ctx.tol.comm
    ordinary = ctx.commutes(a, b)
    projections = np.all(ctx.commutes(ctx.eigenprojections(a)[1],
                                      ctx.raw(b)), axis=0)
    t.tally((sequential == ordinary) & (ordinary == projections), 0.0,
            lambda k: _witness(ctx, k, {
                "a": a, "b": b, "sequential": sequential,
                "ordinary": ordinary, "projections": projections}))


@_statement("spectrality", "propertyA")
def _property_a(run, ctx, smp, ks, t: _Tally) -> None:
    levels = np.arange(1, 9)
    a, b = smp.commuting(ks)
    # Each sample's chain on a second axis: staircases, a, complements
    # of the powers of 1 - a, and the cover.
    chain = np.concatenate([
        sp.simple_approximation(a, levels, ctx),
        ctx.raw(a)[:, None],
        ctx.complement(ctx.powers(ctx.complement(a), 8)),
        ctx.raw(ctx.cover(a))[:, None]], axis=1)
    ok = np.all(ctx.commutes(chain, ctx.raw(b)[:, None]), axis=-1)
    t.tally(ok, 0.0, lambda k: _witness(ctx, k, {"a": a, "b": b}))


def run_spectrality_suite(model: str = "matrix", dim_or_size: int = 6,
                          samples: int = 100, seed: int = 7,
                          tol: Tolerances = DEFAULT,
                          control: bool = False) -> SuiteReport:
    """Covers, floors, comparability, decompositions, reconstruction; the
    control runs the two floor lemmas alone, with the cover where they want
    the floor, and its report keeps no metadata of the rows it leaves."""
    report, run = _suite(
        "spectrality", model, dim_or_size, samples, seed, tol, control,
        floor_mode="cover" if control else "floor",
        floor_power=FLOOR_POWER, approx_levels=APPROX_LEVELS,
        meshes=list(MESHES))
    _run_rows(report, run)
    if not control:  # propertyA and de:b-compar run in the normal run
        report.metadata["property_a_coverage"] = (
            "constructed chains only: dyadic approximations and complements "
            "of sequential powers")
        report.metadata["degenerate_comparability_ties"] = run.degenerate_ties
    return report


# ---------------------------------------------------------------------------
# context suite


def _lagrange(ctx, a, nodes: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The Lagrange basis L_i(a) = prod_{j != i} (a - x_j) / (x_i - x_j) on
    each member's nodes (first in ``nodes``, as ``valid`` marks), one
    ``(M, S, ...)`` stack; past its nodes a member's shifts are the identity
    and its differences 1.  Each numerator is the running product of the
    shifts before i times that of those after, each denominator the same
    products of the x_i - x_j in the same order: where a's value is a node
    x_k, as on the mv model, L_k is a float over itself, exactly 1, and
    every other L_i has a factor exactly 0."""
    m, grid, tail = len(nodes), np.arange(len(nodes)), (1,) * ctx.element_ndim
    one = ctx.one_like(a)
    shifts = np.where(valid.reshape(valid.shape + tail), ctx.shift(a, nodes),
                      one)
    before = [np.broadcast_to(one, shifts.shape[1:])]
    after = before[:]
    for j in range(m - 1):
        before.append(ctx.mul(before[-1], shifts[j]))
        after.append(ctx.mul(shifts[m - 1 - j], after[-1]))
    # [i, j] = x_i - x_j, 1 on the diagonal and past a member's nodes
    paired = valid & valid[:, None] & ~np.eye(m, dtype=bool)[..., None]
    diffs = np.where(paired, nodes[:, None] - nodes, 1.0)
    den = (np.cumprod(diffs, axis=1)[grid, grid]
           * np.cumprod(diffs[:, ::-1], axis=1)[grid, m - 1 - grid])
    return (ctx.mul(np.stack(before), np.stack(after[::-1]))
            / den.reshape(den.shape + tail))


def _block_starts(values: np.ndarray, own: np.ndarray,
                  delta: float) -> np.ndarray:
    """Which coefficients start a block when each one within delta of its
    block's first one is merged into that block, which keeps the first
    coefficient; values cluster first with the mask of each member's own,
    as ``eigenprojections`` gives them, one column of verdicts per member."""
    starts = np.zeros(values.shape, dtype=bool)
    starts[0] = True
    first = values[0]
    for j in range(1, len(values)):
        starts[j] = own[j] & ~((delta > 0.0) & (values[j] - first <= delta))
        first = np.where(starts[j], values[j], first)
    return starts


@_statement("context", "thm:contexts", control=True)
def _closed_form(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.simple(ks, gap=0.15)
    if run.control:
        # Sample 0's two levels 0.1 apart always merge, so the control
        # fails for every seed, not only when sampled levels happen to.
        a = ctx.where(ks == 0, smp.with_values(
            ks, np.resize([0.4, 0.5], run.n)), a)
    rep = sp.reduced_representation(a, ctx)
    ref = _rickart_family(a, rep, ctx)
    # The closed form of a member with nothing to merge is its family;
    # one with a merged coefficient has fewer steps than the
    # definition, and fails.
    closed = np.count_nonzero(_block_starts(
        rep.coefficients, rep.own, MERGE_DELTA if run.control else 0.0),
        axis=0)
    steps = np.count_nonzero(rep.own, axis=0)
    same = closed == steps
    fam = sp.family_from_representation(rep.coefficients, rep.projections)
    r = np.where(same, run.res(fam.projections, ref.projections), 0.0)
    ok = same & np.all(r <= run.thr, axis=0) & np.all(
        np.abs(fam.breakpoints - ref.breakpoints) <= run.thr, axis=0)
    t.tally(ok, _most(r), lambda k: _witness(ctx, k, {
        "a": a, "closed_steps": closed + 1, "family_steps": steps + 1}))


@_statement("context", "thm:contexts.reduced")
def _reduced(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.simple(ks, gap=0.15)
    rep = sp.reduced_representation(a, ctx)
    ref = _rickart_family(a, rep, ctx)
    coeffs, projs, own = rep.coefficients, rep.projections, rep.own
    ok = np.all(~own[1:] | (np.diff(coeffs, axis=0) > ctx.tol.cluster),
                axis=0)
    r_jump = run.res(np.diff(ref.projections, axis=0), projs)
    ok &= np.all((r_jump <= run.thr)
                 & (np.abs(ref.breakpoints - coeffs) <= run.thr), axis=0)
    # the eigenprojections are pairwise orthogonal: ‖p_i p_j‖, i < j
    r_pairs = ctx.overlaps(projs)[np.triu_indices(len(projs), 1)] / run.n
    ok &= np.all(r_pairs <= run.thr, axis=0)
    t.tally(ok, _most(r_jump, r_pairs), lambda k: _witness(ctx, k, {"a": a}))


@_statement("context", "thm:contexts.functions", control=True)
def _functions(run, ctx, smp, ks, t: _Tally) -> None:
    a = smp.simple(ks, gap=0.15)
    rep = sp.reduced_representation(a, ctx)
    # each member's nodes first; the control drops any within
    # MERGE_DELTA of the one before
    keep = rep.own.copy()
    if run.control:
        keep[1:] &= np.diff(rep.coefficients, axis=0) > MERGE_DELTA
    count = np.count_nonzero(keep, axis=0)
    valid = np.arange(count.max())[:, None] < count
    nodes = np.take_along_axis(rep.coefficients, np.argsort(
        ~keep, axis=0, kind="stable")[:len(valid)], axis=0)
    r = np.where(valid, run.res(_lagrange(ctx, a, nodes, valid),
                                rep.projections[:len(valid)]), 0.0)
    t.tally(np.all(r <= run.thr, axis=0), _most(r), lambda k: {
        "a": ctx.encode(ctx.raw(a)[k]), "nodes": nodes[:count[k], k].tolist()})


def run_context_suite(model: str = "matrix", dim_or_size: int = 4,
                      samples: int = 200, seed: int = 42,
                      tol: Tolerances = DEFAULT,
                      control: bool = False) -> SuiteReport:
    """Reduced representations, closed-form families, functions of a; the
    control runs ``thm:contexts`` and ``thm:contexts.functions`` alone,
    merging the levels within ``MERGE_DELTA`` of each other."""
    report, run = _suite(
        "context", model, dim_or_size, samples, seed, tol, control,
        merge_delta=MERGE_DELTA if control else 0.0)
    return _run_rows(report, run)


# ---------------------------------------------------------------------------
# finite-table suite


def _broken_e1_table() -> tb.FiniteEffectAlgebra:
    alg = tb.lukasiewicz(3)
    table = alg.table.copy()
    table[0, 1] = 0
    return tb.FiniteEffectAlgebra(table, one=alg.one, labels=alg.labels)


def _broken_e4_table() -> tb.FiniteEffectAlgebra:
    alg = tb.lukasiewicz(3)
    table = alg.table.copy()
    table[alg.one, alg.one] = alg.one
    return tb.FiniteEffectAlgebra(table, one=alg.one, labels=alg.labels)


@_statement("tables", "tables:oracle")
def _oracle(run, ctx, smp, ks, t: _Tally) -> None:
    # One tally per clause group and table, its verdicts in the order
    # element (then pair), then clause.
    for name, alg in run.algs.items():
        n = alg.size
        t.tally(~alg.principal | alg.sharp, 0.0, lambda i: {
            "table": name, "element": alg.label(i),
            "clause": "principal implies sharp"})
        # Row i of v is element i's image; pair verdicts are [i, j].
        v = tb.fuzzy_embedding(name)
        if v is None:
            continue
        a, b = v[:, None, :], v[None, :, :]
        comp = [alg.orthosupplement(i) for i in range(n)]
        per_element = {
            "orthosupplement": (v[comp] == 1.0 - v).all(axis=1),
            "sharpness": alg.sharp == ((v == 0.0) | (v == 1.0)).all(
                axis=1),
        }
        clauses = list(per_element)
        t.tally(np.stack(list(per_element.values()), axis=-1), 0.0,
                lambda k: {"table": name,
                           "element": alg.label(k // len(clauses)),
                           "clause": clauses[k % len(clauses)]})
        total, s, inf = a + b, alg.table, alg.infima
        s_def, inf_def = s != tb.UNDEFINED, inf != tb.UNDEFINED
        per_pair = {
            "sum": (s_def == ~(total > 1.0).any(axis=2)) & (
                ~s_def | (v[np.where(s_def, s, 0)] == total).all(
                    axis=2)),
            "order": alg.order == (a <= b).all(axis=2),
            "infimum": inf_def & (
                v[np.where(inf_def, inf, 0)] == np.minimum(a, b)).all(
                    axis=2),
            "compatibility": alg.compatibility,
        }
        clauses = list(per_pair)
        t.tally(np.stack(list(per_pair.values()), axis=-1), 0.0,
                lambda k: {"table": name,
                           "a": alg.label(k // len(clauses) // n),
                           "b": alg.label(k // len(clauses) % n),
                           "clause": clauses[k % len(clauses)]})


@_statement("tables", "tables:diamond")
def _diamond_shape(run, ctx, smp, ks, t: _Tally) -> None:
    alg = run.algs["diamond"]
    clauses = {
        "incompatible pair a,b": tb.incompatible_pairs(alg) == [(1, 2)],
        "a and b are not sharp": tb.non_sharp_elements(alg) == [1, 2],
        "a and b are not principal":
            tb.non_principal_elements(alg) == [1, 2],
        "lattice bounds of a,b":
            alg.brute_inf([1, 2]) == 0 and alg.brute_sup([1, 2]) == 3,
    }
    names = list(clauses)
    t.tally(np.array(list(clauses.values())), 0.0,
            lambda k: {"clause": names[k]})


def run_table_suite(seed: int = 42, tol: Tolerances = DEFAULT,
                    control: bool = False) -> SuiteReport:
    """Exhaustive axiom checks on the built-in Cayley tables, plus the
    cross-model oracle against the fuzzy embeddings; the control checks
    two corrupted tables instead."""
    report = SuiteReport(
        suite="tables", model="table", seed=seed,
        config={"tables": list(tb.BUILTIN_NAMES), "corrupted": control,
                "tolerances": tol.to_dict()})
    if control:
        report.metadata["negative_control"] = True
        for name, factory in (("broken-e1", _broken_e1_table),
                              ("broken-e4", _broken_e4_table)):
            for result in tb.check_ea_axioms(factory(), name).results:
                report.add(result)
        return report

    algs = {name: tb.builtin_table(name) for name in tb.BUILTIN_NAMES}
    for name, alg in algs.items():
        for result in tb.check_ea_axioms(alg, name).results:
            report.add(result)
    # The tables are checked exhaustively: nothing is drawn.
    return _run_rows(report, _Run(None, lambda sid: None, algs=algs))


# ---------------------------------------------------------------------------
# all suites


def control_omitted(suite: str, model: str, n: int) -> str | None:
    """Why ``run_all`` leaves out the negative control of ``suite`` at
    dimension (or size) n, where it cannot fail on a correct build; None
    when it runs it."""
    if n == 1 and suite == "sea" and model == "matrix":
        return ("product=jordan: 1x1 matrices commute, so the Jordan "
                "product is the sequential product")
    if n == 1 and suite == "context":
        return ("merge_delta=0.25: one point has a single spectral value, "
                "so there is nothing to merge")
    return None


def run_all(model: str = "matrix", dim_or_size: int = 4, samples: int = 200,
            seed: int = 42, tol: Tolerances = DEFAULT) -> list[SuiteReport]:
    """Every suite plus its negative control, in a stable order.  A control
    that ``control_omitted`` names is left out, and the suite it controls
    records why."""
    runs = (run_sea_suite, run_compression_suite, run_spectrality_suite,
            run_context_suite)
    reports = [run(model, dim_or_size, samples, seed, tol) for run in runs]
    reports.append(run_table_suite(seed, tol))
    for normal, run in zip(reports[:4], runs):
        reason = control_omitted(normal.suite, model, dim_or_size)
        if reason:
            normal.metadata["control_omitted"] = reason
        else:
            reports.append(run(model, dim_or_size, max(1, samples // 4),
                               seed, tol, control=True))
    reports.append(run_table_suite(seed, tol, control=True))
    return reports
