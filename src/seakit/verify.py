"""Property suites: instance checks of the algebraic laws on the models.

Each suite samples deterministic random inputs, evaluates one statement
per check, and reports integer pass counts with a first witness for any
failure.  Suites accept a deliberately broken configuration (wrong
product, soft focus, wrong floor, merged clusters, corrupted tables) so
that negative controls can prove the checks are not vacuous.

Each statement is one row of ``STATEMENTS``, registered beside its body,
which is written once over the model protocol: the model's context
(``ctx``, ``matrices.MatrixContext`` or ``fuzzy.FuzzyContext``) supplies
the operations, and the statement's sampler (``smp``,
``matrices.EffectSampler`` or ``fuzzy.FuzzySampler``), seeded by its id,
the draws, under the same method names on both models.  A comparison is
``run.res(x, y) <= run.thr``, and that threshold is 0 on the mv model, so
every comparison there is exact.  What stays per model here is the
sampler lookup, the broken products and the planted control witnesses.
"""
from __future__ import annotations

import dataclasses
import math
import os
import traceback
import zlib
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .linalg import frobenius, hermitian_part
from .report import CheckResult, SuiteReport
from . import fuzzy as fz
from . import matrices as mx
from . import spectral as sp
from . import tables as tb

ARCHIMEDEAN_RESOLUTION = 1_000_000
FLOOR_POWER = 50
APPROX_LEVELS = 10
MESHES = (0.1, 0.01, 0.001)


# ---------------------------------------------------------------------------
# the statement table

# Suite -> its rows, (statement id, body), in run order; ``_statement``
# adds a row where the body is defined.  A body takes the suite's run,
# the model's context, its own seeded sampler and its tally.
STATEMENTS: dict[str, list[tuple[str, Callable]]] = {}


def _statement(suite: str, sid: str):
    def register(body):
        STATEMENTS.setdefault(suite, []).append((sid, body))
        return body
    return register


def _seed_for(seed: int, suite: str, sid: str) -> np.random.SeedSequence:
    key = zlib.crc32(f"{suite}/{sid}".encode())
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(key,))


class _Tally:
    """Per-statement accumulator; keeps the first failing witness.

    The witness is passed as a thunk, a zero-argument callable that builds
    the witness dict.  ``tally`` calls it only for the first failing
    sample, the one whose witness the report records, so passing samples
    encode nothing.  The thunk runs inside ``tally``, so it sees the
    sample's values.
    """

    __slots__ = ("samples", "passed", "max_residual", "witness")

    def __init__(self):
        self.samples = 0
        self.passed = 0
        self.max_residual = 0.0
        self.witness = None

    def tally(self, ok: bool, residual: float = 0.0,
              witness: Callable[[], dict] | None = None) -> None:
        if not ok and self.witness is None:
            self.witness = witness() if witness is not None else {}
        self.samples += 1
        res = float(residual)
        if res > self.max_residual:
            self.max_residual = res
        if ok:
            self.passed += 1


def _run_statement(report: SuiteReport, sid: str, body) -> None:
    t = _Tally()
    try:
        body(t)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        t.tally(False, witness=lambda: {
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})
    report.add(CheckResult(sid, report.model, t.samples, t.passed,
                           t.max_residual, t.witness))


def _res(m, dim: int) -> float:
    return frobenius(np.asarray(m)) / dim


@dataclasses.dataclass
class _Run:
    """What a suite run's statement bodies share; ``draws`` maps a statement
    id to its seeded sampler, and ``run_*_suite`` fills in the settings."""

    ctx: object
    draws: Callable
    n: int = 0
    samples: int = 0
    tol: Tolerances = DEFAULT
    thr: float = 0.0  # the context's check threshold, 0 on the mv model
    comm: float = 0.0  # and its commutation threshold
    prod: Callable | None = None  # sea: the sequential product under test
    planted: tuple | None = None  # sea: the S1 witness it plants
    focus: str = "projection"  # compression
    floor: Callable | None = None  # spectrality: the floor, or the cover
    degenerate_ties: int = 0  # spectrality: comparability ties
    merge_delta: float = 0.0  # context
    algs: dict | None = None  # tables: the built-in algebras by name

    def res(self, x, y=None) -> float:
        m = x if y is None else self.ctx.sub(x, y)
        return frobenius(np.asarray(m)) / self.n

    def sandwich(self, x, a):
        return self.ctx.mul(self.ctx.mul(x, a), x)


def _run_rows(report: SuiteReport, run: _Run) -> SuiteReport:
    """Run the suite's rows in table order, each body on a sampler seeded
    by its own statement id."""
    for sid, statement in STATEMENTS[report.suite]:
        _run_statement(report, sid,
                       lambda t: statement(run, run.ctx, run.draws(sid), t))
    return report


# ---------------------------------------------------------------------------
# the models


def _products(model: str, ctx, n: int, product: str):
    """The sequential product by name, with the S1 witness it plants."""
    if product == "standard":
        return ctx.product, None
    control = "jordan" if model == "matrix" else "lukasiewicz"
    if product != control:
        raise ValueError(f"{model} model control product is {control!r}")
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
            lambda sid: mx.EffectSampler(_seed_for(seed, suite, sid), n, tol))
    elif model == "mv":
        limit, ctx, draws = fz.MAX_SPACE, fz.FuzzyContext(tol), (
            lambda sid: fz.FuzzySampler(_seed_for(seed, suite, sid), n))
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
                        ctx.tol.comm)


def _three_orthogonal(smp, n: int) -> tuple[list, list[int]]:
    """Three orthogonal projections on consecutive runs of one frame, the
    first two nonempty where the dimension allows, with their ranks."""
    u = smp.frame()
    k1 = int(smp.rng.integers(1, n)) if n > 1 else 1
    k2 = int(smp.rng.integers(1, n - k1 + 1)) if n - k1 else 0
    k3 = int(smp.rng.integers(0, n - k1 - k2 + 1))
    cuts = (0, k1, k1 + k2, k1 + k2 + k3)
    spans = [smp.span(u, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    return spans, [k1, k2, k3]


# ---------------------------------------------------------------------------
# SEA suite


def _mackey(ctx, p, a) -> bool:
    """Mackey compatibility of a projection and an effect: with c = p a p,
    both a - c and 1 - a - p + c are positive."""
    inside = ctx.compress(p, a)
    rest = ctx.add(ctx.sub(ctx.sub(ctx.one_like(a), a), p), inside)
    return ctx.leq(inside, a) and ctx.leq(ctx.zero_like(a), rest)


def _five_way(ctx, p, a) -> dict:
    praw, araw, mul = ctx.raw(p), ctx.raw(a), ctx.mul
    n = praw.shape[0]
    thr = ctx.tol.check
    inside = ctx.compress(praw, araw)
    comp = ctx.complement(praw)
    r_block = _res(ctx.sub(ctx.sub(araw, inside),
                           mul(mul(comp, araw), comp)), n)
    r_off = _res(mul(mul(praw, araw), comp), n)
    residual = max(0.0, min(r_block, thr), min(r_off, thr))
    meet = ctx.commutes(p, a)
    if meet:
        r_meet = _res(ctx.sub(inside, ctx.meet(p, a)), n)
        meet = r_meet <= thr
        residual = max(residual, min(r_meet, thr))
    return {
        "compress_below": ctx.leq(inside, a),
        "block_sum": r_block <= thr,
        "interval_sum": r_off <= thr,
        "mackey": _mackey(ctx, p, a),
        "meet": meet,
        "residual": residual,
    }


def five_way_statements(p: mx.Effect, a: mx.Effect,
                        tol: Tolerances = DEFAULT) -> dict:
    """The five equivalent compatibility statements for a projection and
    an effect, each evaluated independently.

    Returns booleans keyed by statement plus the largest residual among
    the equality-shaped clauses.
    """
    return _five_way(mx.MatrixContext(tol), p, a)


def _meet_headroom(pvals: np.ndarray, avals: np.ndarray,
                  psd: float) -> np.ndarray:
    """For each coordinate, how far min(p, a) can be raised there and stay
    below p + psd and a + psd (psd >= 0): 30 bisection steps on [0, 1], all
    coordinates at once.

    Raising one coordinate leaves the others at min(p, a), which lies
    below both bounds, so each coordinate's test reads that coordinate
    only and the bisections run side by side on arrays.
    """
    cand = np.minimum(pvals, avals)
    p_top, a_top = pvals + psd, avals + psd
    lo = np.zeros(len(cand))
    hi = np.ones(len(cand))
    for _ in range(30):
        mid = (lo + hi) / 2.0
        trial = cand + mid
        fits = (trial <= p_top) & (trial <= a_top)
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
    return lo


@_statement("sea", "S1")
def _s1(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        b, c = smp.summable_pair()
        if k == 0 and run.planted is not None:
            a, b, c = run.planted
        bc = ctx.element(ctx.add(b, c))
        r = run.res(ctx.sub(run.prod(a, bc), run.prod(a, b)), run.prod(a, c))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "a": ctx.encode(a),
                                          "b": ctx.encode(b),
                                          "c": ctx.encode(c)})


@_statement("sea", "S2")
def _s2(run, ctx, smp, t: _Tally) -> None:
    one = ctx.unit(run.n)
    for k in range(run.samples):
        a = smp.effect()
        r = max(run.res(run.prod(one, a), a), run.res(run.prod(a, one), a))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "a": ctx.encode(a)})


@_statement("sea", "S3")
def _s3(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        if k % 2 == 0:
            a, b = smp.orthogonal_pair()
            r_ab, r_ba = run.res(run.prod(a, b)), run.res(run.prod(b, a))
            ok = (r_ab <= run.thr) == (r_ba <= run.thr)
            t.tally(ok, max(r_ab, r_ba) if not ok else 0.0,
                    lambda: {"sample": k, "a": ctx.encode(a),
                             "b": ctx.encode(b), "forward": r_ab,
                             "backward": r_ba})
        else:
            a, b = smp.effect(), smp.effect()
            lo, hi = ctx.extremes(run.prod(a, b))
            escape = max(0.0, -lo, hi - 1.0)
            t.tally(escape <= ctx.tol.psd + run.thr, escape,
                    lambda: {"sample": k, "a": ctx.encode(a),
                             "b": ctx.encode(b), "min_eigenvalue": lo,
                             "max_eigenvalue": hi})


@_statement("sea", "S4")
def _s4(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = smp.commuting()
        c = smp.effect()
        if run.res(run.prod(a, b), run.prod(b, a)) > run.comm:
            t.tally(True)
            continue
        bperp = ctx.complement(b)
        r1 = run.res(run.prod(a, bperp), run.prod(bperp, a))
        r2 = run.res(run.prod(a, ctx.element(run.prod(b, c))),
                     run.prod(ctx.element(run.prod(a, b)), c))
        r = max(r1, r2)
        t.tally(r <= run.thr, r, lambda: {"sample": k, "a": ctx.encode(a),
                                          "b": ctx.encode(b),
                                          "c": ctx.encode(c),
                                          "complement": r1,
                                          "associativity": r2})


@_statement("sea", "S5")
def _s5(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        c, a, b = smp.refined_commuting()
        if (run.res(run.prod(c, a), run.prod(a, c)) > run.comm
                or run.res(run.prod(c, b), run.prod(b, c)) > run.comm):
            t.tally(True)
            continue
        ab = ctx.element(run.prod(a, b))
        asum = ctx.element(ctx.add(a, b))
        r = max(run.res(run.prod(c, ab), run.prod(ab, c)),
                run.res(run.prod(c, asum), run.prod(asum, c)))
        t.tally(r <= run.comm, r, lambda: {"sample": k, "c": ctx.encode(c),
                                           "a": ctx.encode(a),
                                           "b": ctx.encode(b)})


@_statement("sea", "le:aff")
def _aff(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = smp.effect(), smp.effect()
        lam = smp.scalar()
        scaled = ctx.scale(lam, run.prod(a, b))
        r1 = run.res(run.prod(a, ctx.scale(lam, b)), scaled)
        r2 = run.res(run.prod(ctx.scale(lam, a), b), scaled)
        ca, cb = smp.commuting()
        clb = ctx.scale(lam, cb)
        r3 = run.res(run.prod(ca, clb), run.prod(clb, ca))
        ok = r1 <= run.thr and r2 <= run.thr and r3 <= run.comm
        t.tally(ok, max(r1, r2, r3),
                lambda: {"sample": k, "lambda": lam, "a": ctx.encode(a),
                         "b": ctx.encode(b)})


@_statement("sea", "convex:C1")
def _convex_c1(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        lam, mu = smp.scalar(), smp.scalar()
        r = run.res(ctx.scale(mu, ctx.scale(lam, a)), ctx.scale(lam * mu, a))
        t.tally(r <= run.thr, r,
                lambda: {"sample": k, "lambda": lam, "mu": mu})


@_statement("sea", "convex:C2")
def _convex_c2(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        lam = smp.scalar()
        mu = smp.scalar(0.0, 1.0 - lam)
        r = run.res(ctx.add(ctx.scale(lam, a), ctx.scale(mu, a)),
                    ctx.scale(lam + mu, a))
        t.tally(r <= run.thr, r,
                lambda: {"sample": k, "lambda": lam, "mu": mu})


@_statement("sea", "convex:C3")
def _convex_c3(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = smp.summable_pair()
        lam = smp.scalar()
        s = ctx.element(ctx.add(a, b))
        r = run.res(ctx.sub(ctx.scale(lam, s), ctx.scale(lam, a)),
                    ctx.scale(lam, b))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "lambda": lam})


@_statement("sea", "convex:C4")
def _convex_c4(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        r = run.res(ctx.scale(1.0, a), a)
        t.tally(r <= run.thr, r, lambda: {"sample": k})


@_statement("sea", "le:sharp.i")
def _sharp_i(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.projection() if k % 2 == 0 else smp.effect()
        sharp = ctx.is_sharp(a)
        kills = run.res(run.prod(a, ctx.complement(a))) <= run.thr
        idem = run.res(run.prod(a, a), a) <= run.thr
        t.tally(sharp == kills == idem, 0.0,
                lambda: {"sample": k, "a": ctx.encode(a), "sharp": sharp,
                         "kills_complement": kills, "idempotent": idem})


@_statement("sea", "le:sharp.ii")
def _sharp_ii(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p = smp.projection()
        a = (smp.commuting_with(p, on=1.0) if k % 2 == 0
             else smp.effect())
        below = ctx.leq(p, a)
        rp = max(run.res(run.prod(p, a), p), run.res(run.prod(a, p), p))
        t.tally(below == (rp <= run.thr), 0.0,
                lambda: {"sample": k, "p": ctx.encode(p), "a": ctx.encode(a),
                         "order": below, "product_residual": rp})


@_statement("sea", "le:sharp.iii")
def _sharp_iii(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p = smp.projection()
        a = (smp.commuting_with(p, off=0.0) if k % 2 == 0
             else smp.effect())
        below = ctx.leq(a, p)
        rp = max(run.res(run.prod(p, a), a), run.res(run.prod(a, p), a))
        t.tally(below == (rp <= run.thr), 0.0,
                lambda: {"sample": k, "p": ctx.encode(p), "a": ctx.encode(a),
                         "order": below, "product_residual": rp})


@_statement("sea", "le:sharp.iv")
def _sharp_iv(run, ctx, smp, t: _Tally) -> None:
    one = ctx.unit(run.n)
    for k in range(run.samples):
        if k % 2 == 0:
            ea, eb = smp.orthogonal_pair()
            p = ctx.cover(ea)
            a = eb if k % 4 == 0 else ctx.cover(eb)
        else:
            p, a = smp.projection(), smp.effect()
        total = ctx.add(p, a)
        vanish = run.res(run.prod(p, a)) <= run.thr
        summable = ctx.leq(total, one)
        ok = vanish == summable
        if ok and vanish:
            r_join = run.res(total, ctx.join(p, a))
            ok = (r_join <= run.thr
                  and ctx.is_sharp(total) == ctx.is_sharp(a))
            t.tally(ok, r_join, lambda: {"sample": k, "p": ctx.encode(p),
                                         "a": ctx.encode(a),
                                         "join_residual": r_join})
        else:
            t.tally(ok, 0.0, lambda: {"sample": k, "p": ctx.encode(p),
                                      "a": ctx.encode(a), "vanishes": vanish,
                                      "summable": summable})


@_statement("sea", "le:sharp.v")
def _sharp_v(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p, a = (smp.commuting(smp.projection, smp.effect) if k % 2 == 0
                else (smp.projection(), smp.effect()))
        commute = run.res(run.prod(p, a), run.prod(a, p)) <= run.comm
        mackey = _mackey(ctx, p, a)
        t.tally(commute == mackey, 0.0,
                lambda: {"sample": k, "p": ctx.encode(p), "a": ctx.encode(a),
                         "commutes": commute, "mackey": mackey})


@_statement("sea", "le:sharp.vi")
def _sharp_vi(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p, a = smp.commuting(smp.projection, smp.effect)
        r = run.res(run.prod(p, a), ctx.meet(p, a))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "p": ctx.encode(p),
                                          "a": ctx.encode(a)})
    oracle = run.draws("le:sharp.vi/oracle")
    for k in range(min(run.samples, 24)):
        pvals = (oracle.rng.integers(0, 2, run.n)).astype(float)
        if not pvals.any():
            pvals[0] = 1.0
        avals = oracle.rng.uniform(0.0, 1.0, run.n)
        worst = float(np.max(_meet_headroom(pvals, avals, ctx.tol.psd)))
        t.tally(worst <= 1e-6, worst,
                lambda: {"oracle_sample": k, "p": pvals.tolist(),
                         "a": avals.round(12).tolist(), "slack": worst})


@_statement("sea", "de:strongarch")
def _strongarch(run, ctx, smp, t: _Tally) -> None:
    bound = 2.0 / ARCHIMEDEAN_RESOLUTION
    for k in range(run.samples):
        a, b = smp.effect(), smp.effect()
        least = ctx.extremes(ctx.sub(b, a))[0]
        if least >= -bound:
            t.tally(True)
            continue
        steps = min(ARCHIMEDEAN_RESOLUTION, 2 * math.ceil(1.0 / (-least)))
        gap = ctx.extremes(ctx.sub(ctx.shift(b, -1.0 / steps), a))[0]
        t.tally(gap < 0.0, 0.0,
                lambda: {"sample": k, "n": steps, "min_eigenvalue": least,
                         "shifted_min_eigenvalue": gap})


def run_sea_suite(model: str = "matrix", dim_or_size: int = 4,
                  samples: int = 200, seed: int = 42,
                  tol: Tolerances = DEFAULT,
                  product: str = "standard") -> SuiteReport:
    """Sequential-product axioms, affinity, sharpness, archimedeanity."""
    report, run = _suite(
        "sea", model, dim_or_size, samples, seed, tol, product != "standard",
        product=product, archimedean_resolution=ARCHIMEDEAN_RESOLUTION)
    run.prod, run.planted = _products(model, run.ctx, dim_or_size, product)
    return _run_rows(report, run)


# ---------------------------------------------------------------------------
# compression suite


@_statement("compression", "de:compr")
def _compr(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        u = smp.frame()
        if run.focus == "projection":
            f = smp.projection(frame=u)
        else:
            f = smp.effect(lo=0.3, hi=0.7, frame=u)

        def jmap(x):
            return ctx.product(f, x)

        a, b = smp.summable_pair()
        r_add = run.res(ctx.sub(jmap(ctx.element(ctx.add(a, b))), jmap(a)),
                        jmap(b))
        below = ctx.element(jmap(f))
        r_retract = run.res(jmap(below), below)
        inker = (smp.commuting_with(f, on=0.0)
                 if run.focus == "projection"
                 else ctx.element(ctx.zero_like(f)))
        fperp = ctx.complement(ctx.raw(f))
        kernel_ok = (run.res(jmap(inker)) <= run.thr) == ctx.leq(inker, fperp)
        generic = smp.effect()
        van = run.res(jmap(generic)) <= run.thr
        under = ctx.leq(generic, fperp)
        r = max(r_add, r_retract)
        ok = r <= run.thr and kernel_ok and van == under
        t.tally(ok, r, lambda: {"sample": k, "focus": ctx.encode(f),
                                "additivity": r_add,
                                "retraction": r_retract,
                                "kernel_clause": kernel_ok,
                                "generic_clause": bool(van == under)})


@_statement("compression", "cb:C1")
def _cb_c1(run, ctx, smp, t: _Tally) -> None:
    unit = ctx.unit(run.n)
    for k in range(run.samples):
        p = smp.projection()
        r = run.res(ctx.compress(p, unit), p)
        t.tally(r <= run.thr, r, lambda: {"sample": k, "p": ctx.encode(p)})


@_statement("compression", "cb:C2p")
def _cb_c2p(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p, q = smp.commuting(smp.projection, smp.projection)
        a = smp.effect()
        praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
        pq = ctx.mul(praw, qraw)
        r = run.res(run.sandwich(praw, run.sandwich(qraw, araw)),
                    ctx.mul(ctx.mul(pq, araw), pq.conj().T))
        idem = run.res(ctx.mul(pq, pq), pq)
        t.tally(r <= ctx.tol.comm and idem <= ctx.tol.proj, max(r, idem),
                lambda: {"sample": k, "p": ctx.encode(p), "q": ctx.encode(q)})


@_statement("compression", "cb:C3")
def _cb_c3(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        (p, q, rr), sizes = _three_orthogonal(smp, run.n)
        araw = ctx.raw(smp.effect())
        composed = run.sandwich(ctx.add(p, q),
                                run.sandwich(ctx.add(q, rr), araw))
        r = run.res(composed, run.sandwich(ctx.raw(q), araw))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "sizes": sizes})


@_statement("compression", "le:comE")
def _com_e(run, ctx, smp, t: _Tally) -> None:
    keys = ("compress_below", "block_sum", "interval_sum", "mackey",
            "meet")
    for k in range(run.samples):
        p, a = (smp.commuting(smp.projection, smp.effect) if k % 2 == 0
                else (smp.projection(), smp.effect()))
        stmts = _five_way(ctx, p, a)
        agree = len({stmts[key] for key in keys}) == 1
        t.tally(agree, stmts["residual"],
                lambda: {"sample": k, "p": ctx.encode(p), "a": ctx.encode(a),
                         "statements": {key: stmts[key] for key in keys}})


@_statement("compression", "lemma:compatible_projs.i")
def _compat_i(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        if run.n < 2:
            t.tally(True)
            continue
        u = smp.frame()
        k1 = int(smp.rng.integers(1, run.n))
        k2 = int(smp.rng.integers(1, run.n - k1 + 1))
        p, q = smp.span(u, 0, k1), smp.span(u, k1, k1 + k2)
        a = smp.split_effect(u, k1)
        araw = ctx.raw(a)
        osum = ctx.add(p, q)
        r_join = run.res(ctx.join(p, q), osum)
        rhs = ctx.add(run.sandwich(ctx.raw(p), araw),
                      run.sandwich(ctx.raw(q), araw))
        r = max(r_join, run.res(run.sandwich(osum, araw), rhs))
        t.tally(r <= run.thr, r, lambda: {"sample": k, "p": ctx.encode(p),
                                          "q": ctx.encode(q),
                                          "a": ctx.encode(a)})


@_statement("compression", "lemma:compatible_projs.ii")
def _compat_ii(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        p, q = smp.commuting(smp.projection, smp.projection)
        a = smp.effect()
        praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
        meet = ctx.mul(praw, qraw)
        x = run.sandwich(praw, run.sandwich(qraw, araw))
        y = run.sandwich(qraw, run.sandwich(praw, araw))
        z = ctx.mul(ctx.mul(meet, araw), meet.conj().T)
        r = max(run.res(x, y), run.res(x, z), run.res(meet, ctx.meet(p, q)))
        t.tally(r <= run.thr, r,
                lambda: {"sample": k, "p": ctx.encode(p), "q": ctx.encode(q)})


def run_compression_suite(model: str = "matrix", dim_or_size: int = 4,
                          samples: int = 200, seed: int = 42,
                          tol: Tolerances = DEFAULT,
                          focus: str = "projection") -> SuiteReport:
    """Compression-base axioms and the compatibility equivalences."""
    if focus not in ("projection", "soft"):
        raise ValueError(f"unknown focus {focus!r}")
    report, run = _suite(
        "compression", model, dim_or_size, samples, seed, tol,
        focus != "projection", focus=focus)
    run.focus = focus
    return _run_rows(report, run)


# ---------------------------------------------------------------------------
# spectrality suite


def _rickart_family(a, ctx) -> sp.SpectralFamily:
    """Reference family from the definition: p_λ is the Rickart projection
    of (a - λ)⁺, freshly decomposed at each spectral value λ."""
    values = tuple(float(x) for x in ctx.eigenprojections(a)[0])
    steps = [ctx.zero_like(a)] + [
        ctx.raw(ctx.rickart(ctx.positive_part(ctx.shift(a, lam))))
        for lam in values]
    return sp.SpectralFamily(values, tuple(steps), ctx.model)


@_statement("spectrality", "prop:decomp")
def _decomp(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        v = smp.signed()
        dec = sp.orthogonal_decomposition(v, ctx)
        ok = True
        worst = 0.0
        for q in sp.sign_witness_projections(v, ctx, limit=8):
            comp = ctx.complement(q)
            vp = ctx.mul(ctx.mul(q, v), q)
            vm = -ctx.mul(ctx.mul(comp, v), comp)
            r = max(run.res(vp, dec.v_plus), run.res(vm, dec.v_minus))
            worst = max(worst, r)
            ok = ok and r <= run.thr
        t.tally(ok, worst, lambda: {"sample": k, "v": ctx.encode(v)})


@_statement("spectrality", "coro:limit")
def _limit(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        prev = None
        ok = True
        worst = 0.0
        for level in range(1, APPROX_LEVELS + 1):
            an = np.asarray(sp.simple_approximation(a, level, ctx))
            # One decomposition of a - a_n gives its norm and its sign.
            lo, hi = ctx.extremes(ctx.sub(a, an))
            gap = max(abs(lo), abs(hi))
            worst = max(worst, gap - 2.0 ** -level)
            ok = ok and gap <= 2.0 ** -level + run.thr and lo >= -run.thr
            if prev is not None:
                ok = ok and ctx.leq(prev, an)
            prev = an
        t.tally(ok, max(0.0, worst), lambda: {"sample": k, "a": ctx.encode(a)})


@_statement("spectrality", "eq:spectprojs")
def _spectprojs(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.simple()
        fam = sp.spectral_family(a, ctx)
        ref = _rickart_family(a, ctx)
        ok = len(fam.breakpoints) == len(ref.breakpoints) and all(
            abs(x - y) <= run.thr
            for x, y in zip(fam.breakpoints, ref.breakpoints))
        worst = 0.0
        for j in range(1, len(fam.projections)):
            ok = ok and ctx.leq(fam.projections[j - 1],
                                fam.projections[j])
            eig = sp.eigenprojection(a, fam.breakpoints[j - 1], ctx)
            r = run.res(fam.jump(j), eig)
            worst = max(worst, r)
            ok = ok and r <= run.thr
        for step, ref_step in zip(fam.projections, ref.projections):
            r = run.res(step, ref_step)
            worst = max(worst, r)
            ok = ok and r <= run.thr
        bounds = sp.spectral_bounds(a, ctx)
        one = ctx.one_like(a)
        ok = (ok and ctx.leq(bounds.L * one, a)
              and ctx.leq(a, bounds.U * one))
        ok = ok and ctx.proj_rank(fam.at(bounds.L - 0.25)) == 0
        ok = ok and ctx.proj_rank(fam.at(bounds.U)) == run.n
        for lo, hi in zip(fam.breakpoints, fam.breakpoints[1:]):
            mid = (lo + hi) / 2.0
            ok = ok and run.res(fam.at(mid), fam.at(mid + 1e-12)) <= run.thr
        t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a)})


@_statement("spectrality", "eq:spectresV")
def _spectres(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.effect()
        fam = sp.spectral_family(a, ctx)
        r0 = ctx.norm(ctx.sub(a, sp.reconstruct(fam)))
        ok = r0 <= run.thr
        worst = r0
        for mesh in MESHES:
            gap = ctx.norm(ctx.sub(a, sp.reconstruct(fam, mesh)))
            ok = ok and gap <= mesh + run.thr
            worst = max(worst, gap if gap > mesh else 0.0)
        t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a),
                                    "breakpoint_residual": r0})


@_statement("spectrality", "de:projcov")
def _projcov(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.simple()
        cover = ctx.cover(a)
        ok = ctx.leq(a, cover)
        # Every sub-sum of the eigenprojections (the first 16) lies
        # above a exactly when it lies above the cover.
        projs = ctx.eigenprojections(a)[1]
        for mask in range(min(2 ** len(projs), 16)):
            q = ctx.zero_like(a)
            for i, proj in enumerate(projs):
                if mask >> i & 1:
                    q = ctx.add(q, proj)
            ok = ok and ctx.leq(a, q) == ctx.leq(cover, q)
        lam = smp.scalar(0.05, 1.0)
        r = run.res(ctx.cover(ctx.scale(lam, a)), cover)
        t.tally(ok and r <= run.thr, r,
                lambda: {"sample": k, "a": ctx.encode(a), "lambda": lam})


@_statement("spectrality", "lemma:projcover")
def _projcover_lemma(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = (smp.orthogonal_pair() if k % 2 == 0
                else (smp.effect(), smp.effect()))
        r1 = run.res(ctx.product(a, b))
        r2 = run.res(ctx.product(ctx.cover(a), b))
        t.tally((r1 <= run.thr) == (r2 <= run.thr), 0.0,
                lambda: {"sample": k, "a": ctx.encode(a), "b": ctx.encode(b),
                         "effect_product": r1, "cover_product": r2})


@_statement("spectrality", "lemma:covex_floor")
def _covex_floor(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        ones = int(smp.rng.integers(0, run.n)) if k % 2 == 0 else 0
        a = smp.with_top(ones) if ones else smp.effect(hi=0.95)
        top = ctx.zero_like(a)
        for lam, proj in zip(*ctx.eigenprojections(a)):
            if lam >= 1.0 - ctx.tol.cluster:
                top = ctx.add(top, proj)
        r1 = run.res(run.floor(a), top)
        r2 = run.res(ctx.floor(ctx.complement(a)),
                     ctx.complement(ctx.raw(ctx.cover(a))))
        r = max(r1, r2)
        t.tally(r <= run.thr, r, lambda: {"sample": k, "a": ctx.encode(a),
                                          "cluster_route": r1, "duality": r2})


@_statement("spectrality", "lemma:floor")
def _floor_lemma(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.with_top(int(smp.rng.integers(1, run.n + 1)))
        flr = run.floor(a)
        powers = ctx.powers(a, FLOOR_POWER)
        ok = all(ctx.leq(powers[j + 1], powers[j])
                 for j in range(min(3, len(powers) - 1)))
        ok = ok and ctx.leq(flr, powers[-1])
        values = ctx.eigenprojections(a)[0]
        below_one = values[values < 1.0 - ctx.tol.cluster]
        mu_max = float(below_one[-1]) if below_one.size else 0.0
        gap = ctx.norm(ctx.sub(powers[-1], flr))
        # Powers of a float round, on the mv model too, so the rate
        # bound keeps the given check tolerance.
        bound = mu_max ** FLOOR_POWER + run.tol.check
        ok = ok and gap <= bound
        t.tally(ok, gap, lambda: {"sample": k, "a": ctx.encode(a),
                                  "rate_gap": gap, "rate_bound": bound})


@_statement("spectrality", "de:b-compar")
def _b_compar(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        if k % 4 == 3:
            # A generic pair: a witness must exist exactly when it
            # commutes, which on the mv model it always does.
            e, f = smp.effect(), smp.effect()
            try:
                wit = sp.comparability_witness(e, f, ctx)
            except mx.NotCommutingError:
                t.tally(True)
                continue
            if not ctx.commutes(e, f):
                t.tally(False, 0.0,
                        lambda: {"sample": k, "e": ctx.encode(e),
                                 "f": ctx.encode(f), "note": "witness for a "
                                 "non-commuting pair"})
                continue
        else:
            e, f = smp.commuting()
            wit = sp.comparability_witness(e, f, ctx)
        if wit.degenerate:
            run.degenerate_ties += 1
        p = wit.p
        comp = ctx.complement(p)
        ok = (ctx.leq(ctx.compress(p, e), ctx.compress(p, f))
              and ctx.leq(ctx.compress(comp, f), ctx.compress(comp, e)))
        t.tally(ok, 0.0, lambda: {"sample": k, "e": ctx.encode(e),
                                  "f": ctx.encode(f)})


@_statement("spectrality", "prop:commut")
def _commut(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = (smp.commuting() if k % 2 == 0
                else (smp.effect(), smp.effect()))
        sequential = ctx.residual(ctx.product(a, b),
                                  ctx.product(b, a)) <= ctx.tol.comm
        ordinary = ctx.commutes(a, b)
        projections = all(ctx.commutes(pa, b)
                          for pa in ctx.eigenprojections(a)[1])
        t.tally(sequential == ordinary == projections, 0.0,
                lambda: {"sample": k, "a": ctx.encode(a), "b": ctx.encode(b),
                         "sequential": sequential, "ordinary": ordinary,
                         "projections": projections})


@_statement("spectrality", "propertyA")
def _property_a(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a, b = smp.commuting()
        chain = [sp.simple_approximation(a, level, ctx)
                 for level in range(1, 9)]
        chain.append(a)
        chain += [ctx.complement(ctx.raw(x))
                  for x in ctx.powers(ctx.complement(a), 8)]
        chain.append(ctx.cover(a))
        ok = all(ctx.commutes(x, b) for x in chain)
        t.tally(ok, 0.0, lambda: {"sample": k, "a": ctx.encode(a),
                                  "b": ctx.encode(b)})


def run_spectrality_suite(model: str = "matrix", dim_or_size: int = 6,
                          samples: int = 100, seed: int = 7,
                          tol: Tolerances = DEFAULT,
                          floor_mode: str = "floor") -> SuiteReport:
    """Covers, floors, comparability, decompositions, reconstruction."""
    if floor_mode not in ("floor", "cover"):
        raise ValueError(f"unknown floor mode {floor_mode!r}")
    report, run = _suite(
        "spectrality", model, dim_or_size, samples, seed, tol,
        floor_mode != "floor", floor_mode=floor_mode,
        floor_power=FLOOR_POWER, approx_levels=APPROX_LEVELS,
        meshes=list(MESHES))
    report.metadata["property_a_coverage"] = (
        "constructed chains only: dyadic approximations and complements of "
        "sequential powers")
    run.floor = run.ctx.floor if floor_mode == "floor" else run.ctx.cover
    _run_rows(report, run)
    report.metadata["degenerate_comparability_ties"] = run.degenerate_ties
    return report


# ---------------------------------------------------------------------------
# context suite


def _lagrange(ctx, a, nodes, i: int):
    """The i-th Lagrange basis polynomial on ``nodes`` at a, in product
    form: L_i(a) = prod_{j != i} (a - x_j) / (x_i - x_j).

    At a node x_k every factor is (x_k - x_j) / (x_i - x_j): for i = k
    each is a number over itself, exactly 1, and for i != k the factor
    j = k is exactly 0.  So where a's values are the nodes, as on the mv
    model, the products are exactly 0 or 1.
    """
    out = ctx.one_like(a)
    for j, x in enumerate(nodes):
        if j != i:
            out = ctx.mul(out, ctx.shift(a, x) / (nodes[i] - x))
    return out


def _merge_representation(rep: sp.ReducedRepresentation, delta: float
                          ) -> tuple[list[float], list[np.ndarray]]:
    """Merge each coefficient within delta of its block's first one into
    that block, which keeps the first coefficient."""
    coeffs: list[float] = []
    projs: list[np.ndarray] = []
    for mu, proj in zip(rep.coefficients, rep.projections):
        if coeffs and delta > 0.0 and mu - coeffs[-1] <= delta:
            projs[-1] = projs[-1] + proj
        else:
            coeffs.append(mu)
            projs.append(proj)
    return coeffs, projs


@_statement("context", "thm:contexts")
def _closed_form(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        if k == 0 and run.merge_delta > 0.0:
            # Two levels 0.1 apart always merge, so the control fails
            # for every seed, not only when sampled levels happen to.
            a = smp.with_values(np.resize([0.4, 0.5], run.n))
        else:
            a = smp.simple(gap=0.15)
        rep = sp.reduced_representation(a, ctx)
        coeffs, projs = _merge_representation(rep, run.merge_delta)
        closed = sp.family_from_representation(coeffs, projs, ctx.model)
        ref = _rickart_family(a, ctx)
        ok = len(closed.projections) == len(ref.projections)
        worst = 0.0
        if ok:
            for cp, fp in zip(closed.projections, ref.projections):
                r = run.res(cp, fp)
                worst = max(worst, r)
                ok = ok and r <= run.thr
            ok = ok and all(
                abs(x - y) <= run.thr
                for x, y in zip(closed.breakpoints, ref.breakpoints))
        t.tally(ok, worst, lambda: {
            "sample": k, "a": ctx.encode(a),
            "closed_steps": len(closed.projections),
            "family_steps": len(ref.projections)})


@_statement("context", "thm:contexts.reduced")
def _reduced(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.simple(gap=0.15)
        rep = sp.reduced_representation(a, ctx)
        ref = _rickart_family(a, ctx)
        ok = all(y - x > ctx.tol.cluster for x, y in
                 zip(rep.coefficients, rep.coefficients[1:]))
        worst = 0.0
        for j in range(1, len(ref.breakpoints) + 1):
            r = run.res(ref.jump(j), rep.projections[j - 1])
            worst = max(worst, r)
            ok = ok and r <= run.thr
            ok = ok and abs(ref.breakpoints[j - 1]
                            - rep.coefficients[j - 1]) <= run.thr
        for i, p in enumerate(rep.projections):
            for q in rep.projections[i + 1:]:
                r = run.res(ctx.mul(p, q))
                worst = max(worst, r)
                ok = ok and r <= run.thr
        t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a)})


@_statement("context", "thm:contexts.functions")
def _functions(run, ctx, smp, t: _Tally) -> None:
    for k in range(run.samples):
        a = smp.simple(gap=0.15)
        rep = sp.reduced_representation(a, ctx)
        nodes = list(rep.coefficients)
        if run.merge_delta > 0.0:
            nodes = [mu for j, mu in enumerate(nodes)
                     if j == 0 or mu - nodes[j - 1] > run.merge_delta]
        spread = min((y - x for x, y in zip(nodes, nodes[1:])),
                     default=1.0)
        assert spread > ctx.tol.cluster, \
            "reduced representation carries duplicate coefficients"
        ok = True
        worst = 0.0
        for i, proj in enumerate(rep.projections[:len(nodes)]):
            r = run.res(_lagrange(ctx, a, nodes, i), proj)
            worst = max(worst, r)
            ok = ok and r <= run.thr
        t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a),
                                    "nodes": [float(x) for x in nodes]})


def run_context_suite(model: str = "matrix", dim_or_size: int = 4,
                      samples: int = 200, seed: int = 42,
                      tol: Tolerances = DEFAULT,
                      merge_delta: float = 0.0) -> SuiteReport:
    """Reduced representations, closed-form families, functions of a."""
    report, run = _suite(
        "context", model, dim_or_size, samples, seed, tol,
        merge_delta > 0.0, merge_delta=merge_delta)
    run.merge_delta = merge_delta
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
def _oracle(run, ctx, smp, t: _Tally) -> None:
    for name, alg in run.algs.items():
        n = alg.size
        for i, ok in enumerate(~alg.principal | alg.sharp):
            t.tally(bool(ok), 0.0, lambda: {
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
        for i in range(n):
            for clause, oks in per_element.items():
                t.tally(bool(oks[i]), 0.0, lambda: {
                    "table": name, "element": alg.label(i),
                    "clause": clause})
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
        for i in range(n):
            for j in range(n):
                for clause, oks in per_pair.items():
                    t.tally(bool(oks[i, j]), 0.0,
                            lambda: {"table": name, "a": alg.label(i),
                                     "b": alg.label(j), "clause": clause})


@_statement("tables", "tables:diamond")
def _diamond_shape(run, ctx, smp, t: _Tally) -> None:
    alg = run.algs["diamond"]
    t.tally(tb.incompatible_pairs(alg) == [(1, 2)], 0.0,
            lambda: {"clause": "incompatible pair a,b"})
    t.tally(tb.non_sharp_elements(alg) == [1, 2], 0.0,
            lambda: {"clause": "a and b are not sharp"})
    t.tally(tb.non_principal_elements(alg) == [1, 2], 0.0,
            lambda: {"clause": "a and b are not principal"})
    t.tally(alg.brute_inf([1, 2]) == 0
            and alg.brute_sup([1, 2]) == 3, 0.0,
            lambda: {"clause": "lattice bounds of a,b"})


def run_table_suite(seed: int = 42, tol: Tolerances = DEFAULT,
                    corrupted: bool = False) -> SuiteReport:
    """Exhaustive axiom checks on the built-in Cayley tables, plus the
    cross-model oracle against the fuzzy embeddings."""
    report = SuiteReport(
        suite="tables", model="table", seed=seed,
        config={"tables": list(tb.BUILTIN_NAMES), "corrupted": corrupted,
                "tolerances": tol.to_dict()})
    if corrupted:
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
    broken = {
        run_sea_suite: {"product": ("jordan" if model == "matrix"
                                    else "lukasiewicz")},
        run_compression_suite: {"focus": "soft"},
        run_spectrality_suite: {"floor_mode": "cover"},
        run_context_suite: {"merge_delta": 0.25},
    }
    reports = [run(model, dim_or_size, samples, seed, tol) for run in broken]
    reports.append(run_table_suite(seed=seed, tol=tol))
    for normal, (run, config) in zip(reports[:4], broken.items()):
        reason = control_omitted(normal.suite, model, dim_or_size)
        if reason:
            normal.metadata["control_omitted"] = reason
        else:
            reports.append(run(model, dim_or_size, max(1, samples // 4),
                               seed, tol, **config))
    reports.append(run_table_suite(seed=seed, tol=tol, corrupted=True))
    return reports
