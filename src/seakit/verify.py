"""Property suites: instance checks of the algebraic laws on the models.

Each suite samples deterministic random inputs, evaluates one statement
per check, and reports integer pass counts with a first witness for any
failure.  Suites accept a deliberately broken configuration (wrong
product, soft focus, wrong floor, merged clusters, corrupted tables) so
that negative controls can prove the checks are not vacuous.

The laws hold in every convex sequential effect algebra, so each
statement has one body over the model protocol, two objects with the
same method names on both models: the model's context (``ctx``,
``matrices.MatrixContext`` or ``fuzzy.FuzzyContext``) supplies the
operations, and the statement's seeded sampler (``smp``,
``matrices.EffectSampler`` or ``fuzzy.FuzzySampler``) the draws.  A
comparison is ``_res(ctx.sub(x, y), n) <= ctx.tol.check``, and that
threshold is 0 on the mv model, so every comparison there is exact.  What
stays per model here is the sampler lookup, the broken products and the
planted control witnesses.
"""
from __future__ import annotations

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

REQUIRED_STATEMENTS = (
    "E1", "E2", "E3", "E4",
    "S1", "S2", "S3", "S4", "S5",
    "convex:C1", "convex:C2", "convex:C3", "convex:C4",
    "de:compr", "cb:C1", "cb:C2p", "cb:C3",
    "le:comE",
    "le:sharp.i", "le:sharp.ii", "le:sharp.iii",
    "le:sharp.iv", "le:sharp.v", "le:sharp.vi",
    "le:aff",
    "lemma:projcover", "lemma:floor", "lemma:covex_floor",
    "de:projcov", "de:b-compar",
    "prop:decomp", "prop:commut", "coro:limit",
    "eq:spectresV", "thm:contexts", "propertyA",
)


def covered_statements(reports: list[SuiteReport]) -> set[str]:
    return {r.statement_id for rep in reports for r in rep.results}


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


def _run_statement(report: SuiteReport, sid: str, model: str, body) -> None:
    t = _Tally()
    try:
        body(t)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failure
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        t.tally(False, witness=lambda: {
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno}"})
    report.add(CheckResult(sid, model, t.samples, t.passed,
                           t.max_residual, t.witness))


def _res(m, dim: int) -> float:
    return frobenius(np.asarray(m)) / dim


# ---------------------------------------------------------------------------
# the models


def _model(model: str, suite: str, n: int, seed: int, tol: Tolerances):
    """The model's context and its sampler lookup: statement id -> the
    statement's seeded sampler."""
    if model == "matrix":
        return mx.MatrixContext(tol), lambda sid: mx.EffectSampler(
            _seed_for(seed, suite, sid), n, tol)
    if model == "mv":
        return fz.FuzzyContext(tol), lambda sid: fz.FuzzySampler(
            _seed_for(seed, suite, sid), n)
    raise ValueError(f"unknown model {model!r}")


def _products(ctx, n: int, product: str):
    """The sequential product by name, with the S1 witness it plants."""
    if product == "standard":
        return ctx.product, None
    if product == "jordan" and ctx.model == "matrix":
        # The symmetrized ordinary product (a b + b a) / 2: not a
        # sequential product, and its value need not be an effect.
        def jordan(x, y):
            xm, ym = ctx.raw(x), ctx.raw(y)
            return hermitian_part(xm @ ym + ym @ xm) / 2.0
        return jordan, None
    if product == "lukasiewicz" and ctx.model == "fuzzy":
        # Truncated, a (b + c) = 0.75 but a b + a c = 0.5, so the
        # control fails for every seed, not only lucky ones.
        half = np.full(n, 0.5)
        return ((lambda x, y: np.maximum(0.0, ctx.raw(x) + ctx.raw(y)
                                         - 1.0)),
                (np.full(n, 0.75), half, half))
    raise ValueError(f"unknown product {product!r}")


def _suite(suite: str, model: str, n: int, samples: int, seed: int,
           tol: Tolerances, control: bool, **config):
    """Check the arguments and start a suite's report.  Returns the report,
    the model's context and its sampler lookup."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if n < 1 or (model == "mv" and n > fz.MAX_SPACE):
        raise ValueError(f"dim_or_size {n} out of range")
    ctx, draws = _model(model, suite, n, seed, tol)
    report = SuiteReport(
        suite=suite, model=model, seed=seed,
        config={"dim_or_size": n, "samples": samples, **config,
                "tolerances": tol.to_dict()})
    if control:
        report.metadata["negative_control"] = True
    return report, ctx, draws


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
    praw = ctx.raw(p)
    inside = ctx.mul(ctx.mul(praw, ctx.raw(a)), praw)
    rest = ctx.add(ctx.sub(ctx.sub(ctx.one_like(a), a), p), inside)
    return ctx.leq(inside, a) and ctx.leq(ctx.zero_like(a), rest)


def _five_way(ctx, p, a) -> dict:
    praw, araw, mul = ctx.raw(p), ctx.raw(a), ctx.mul
    n = praw.shape[0]
    thr = ctx.tol.check
    inside = mul(mul(praw, araw), praw)
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


def five_way_statements(p: mx.Projection, a: mx.Effect,
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


def _sea(report: SuiteReport, ctx, draws, n: int, samples: int,
         product: str) -> None:
    enc = ctx.encode
    thr, comm = ctx.tol.check, ctx.tol.comm
    prod, planted = _products(ctx, n, product)
    one = ctx.unit(n)

    def res(x, y=None) -> float:
        return _res(x if y is None else ctx.sub(x, y), n)

    def s1(t: _Tally) -> None:
        smp = draws("S1")
        for k in range(samples):
            a = smp.effect()
            b, c = smp.summable_pair()
            if k == 0 and planted is not None:
                a, b, c = planted
            bc = ctx.element(ctx.add(b, c))
            r = res(ctx.sub(prod(a, bc), prod(a, b)), prod(a, c))
            t.tally(r <= thr, r, lambda: {"sample": k, "a": enc(a),
                                          "b": enc(b), "c": enc(c)})

    def s2(t: _Tally) -> None:
        smp = draws("S2")
        for k in range(samples):
            a = smp.effect()
            r = max(res(prod(one, a), a), res(prod(a, one), a))
            t.tally(r <= thr, r, lambda: {"sample": k, "a": enc(a)})

    def s3(t: _Tally) -> None:
        smp = draws("S3")
        for k in range(samples):
            if k % 2 == 0:
                a, b = smp.orthogonal_pair()
                r_ab, r_ba = res(prod(a, b)), res(prod(b, a))
                ok = (r_ab <= thr) == (r_ba <= thr)
                t.tally(ok, max(r_ab, r_ba) if not ok else 0.0,
                        lambda: {"sample": k, "a": enc(a), "b": enc(b),
                                 "forward": r_ab, "backward": r_ba})
            else:
                a, b = smp.effect(), smp.effect()
                lo, hi = ctx.extremes(prod(a, b))
                escape = max(0.0, -lo, hi - 1.0)
                t.tally(escape <= ctx.tol.psd + thr, escape,
                        lambda: {"sample": k, "a": enc(a), "b": enc(b),
                                 "min_eigenvalue": lo, "max_eigenvalue": hi})

    def s4(t: _Tally) -> None:
        smp = draws("S4")
        for k in range(samples):
            a, b = smp.commuting()
            c = smp.effect()
            if res(prod(a, b), prod(b, a)) > comm:
                t.tally(True)
                continue
            bperp = ctx.complement(b)
            r1 = res(prod(a, bperp), prod(bperp, a))
            r2 = res(prod(a, ctx.element(prod(b, c))),
                     prod(ctx.element(prod(a, b)), c))
            r = max(r1, r2)
            t.tally(r <= thr, r, lambda: {"sample": k, "a": enc(a),
                                          "b": enc(b), "c": enc(c),
                                          "complement": r1,
                                          "associativity": r2})

    def s5(t: _Tally) -> None:
        smp = draws("S5")
        for k in range(samples):
            c, a, b = smp.refined_commuting()
            if (res(prod(c, a), prod(a, c)) > comm
                    or res(prod(c, b), prod(b, c)) > comm):
                t.tally(True)
                continue
            ab = ctx.element(prod(a, b))
            asum = ctx.element(ctx.add(a, b))
            r = max(res(prod(c, ab), prod(ab, c)),
                    res(prod(c, asum), prod(asum, c)))
            t.tally(r <= comm, r, lambda: {"sample": k, "c": enc(c),
                                           "a": enc(a), "b": enc(b)})

    def aff(t: _Tally) -> None:
        smp = draws("le:aff")
        for k in range(samples):
            a, b = smp.effect(), smp.effect()
            lam = smp.scalar()
            scaled = ctx.scale(lam, prod(a, b))
            r1 = res(prod(a, ctx.scale(lam, b)), scaled)
            r2 = res(prod(ctx.scale(lam, a), b), scaled)
            ca, cb = smp.commuting()
            clb = ctx.scale(lam, cb)
            r3 = res(prod(ca, clb), prod(clb, ca))
            t.tally(r1 <= thr and r2 <= thr and r3 <= comm, max(r1, r2, r3),
                    lambda: {"sample": k, "lambda": lam, "a": enc(a),
                             "b": enc(b)})

    def convex_c1(t: _Tally) -> None:
        smp = draws("convex:C1")
        for k in range(samples):
            a = smp.effect()
            lam, mu = smp.scalar(), smp.scalar()
            r = res(ctx.scale(mu, ctx.scale(lam, a)), ctx.scale(lam * mu, a))
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c2(t: _Tally) -> None:
        smp = draws("convex:C2")
        for k in range(samples):
            a = smp.effect()
            lam = smp.scalar()
            mu = smp.scalar(0.0, 1.0 - lam)
            r = res(ctx.add(ctx.scale(lam, a), ctx.scale(mu, a)),
                    ctx.scale(lam + mu, a))
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "lambda": lam, "mu": mu})

    def convex_c3(t: _Tally) -> None:
        smp = draws("convex:C3")
        for k in range(samples):
            a, b = smp.summable_pair()
            lam = smp.scalar()
            s = ctx.element(ctx.add(a, b))
            r = res(ctx.sub(ctx.scale(lam, s), ctx.scale(lam, a)),
                    ctx.scale(lam, b))
            t.tally(r <= thr, r, lambda: {"sample": k, "lambda": lam})

    def convex_c4(t: _Tally) -> None:
        smp = draws("convex:C4")
        for k in range(samples):
            a = smp.effect()
            r = res(ctx.scale(1.0, a), a)
            t.tally(r <= thr, r, lambda: {"sample": k})

    def sharp_i(t: _Tally) -> None:
        smp = draws("le:sharp.i")
        for k in range(samples):
            a = smp.projection() if k % 2 == 0 else smp.effect()
            sharp = ctx.is_sharp(a)
            kills = res(prod(a, ctx.complement(a))) <= thr
            idem = res(prod(a, a), a) <= thr
            t.tally(sharp == kills == idem, 0.0,
                    lambda: {"sample": k, "a": enc(a), "sharp": sharp,
                             "kills_complement": kills, "idempotent": idem})

    def sharp_ii(t: _Tally) -> None:
        smp = draws("le:sharp.ii")
        for k in range(samples):
            p = smp.projection()
            a = (smp.commuting_with(p, on=1.0) if k % 2 == 0
                 else smp.effect())
            below = ctx.leq(p, a)
            rp = max(res(prod(p, a), p), res(prod(a, p), p))
            t.tally(below == (rp <= thr), 0.0,
                    lambda: {"sample": k, "p": enc(p), "a": enc(a),
                             "order": below, "product_residual": rp})

    def sharp_iii(t: _Tally) -> None:
        smp = draws("le:sharp.iii")
        for k in range(samples):
            p = smp.projection()
            a = (smp.commuting_with(p, off=0.0) if k % 2 == 0
                 else smp.effect())
            below = ctx.leq(a, p)
            rp = max(res(prod(p, a), a), res(prod(a, p), a))
            t.tally(below == (rp <= thr), 0.0,
                    lambda: {"sample": k, "p": enc(p), "a": enc(a),
                             "order": below, "product_residual": rp})

    def sharp_iv(t: _Tally) -> None:
        smp = draws("le:sharp.iv")
        for k in range(samples):
            if k % 2 == 0:
                ea, eb = smp.orthogonal_pair()
                p = ctx.cover(ea)
                a = eb if k % 4 == 0 else ctx.cover(eb)
            else:
                p, a = smp.projection(), smp.effect()
            total = ctx.add(p, a)
            vanish = res(prod(p, a)) <= thr
            summable = ctx.leq(total, one)
            ok = vanish == summable
            if ok and vanish:
                r_join = res(total, ctx.join(p, a))
                ok = (r_join <= thr
                      and ctx.is_sharp(total) == ctx.is_sharp(a))
                t.tally(ok, r_join, lambda: {"sample": k, "p": enc(p),
                                             "a": enc(a),
                                             "join_residual": r_join})
            else:
                t.tally(ok, 0.0, lambda: {"sample": k, "p": enc(p),
                                          "a": enc(a), "vanishes": vanish,
                                          "summable": summable})

    def sharp_v(t: _Tally) -> None:
        smp = draws("le:sharp.v")
        for k in range(samples):
            p, a = (smp.commuting(smp.projection, smp.effect) if k % 2 == 0
                    else (smp.projection(), smp.effect()))
            commute = res(prod(p, a), prod(a, p)) <= comm
            mackey = _mackey(ctx, p, a)
            t.tally(commute == mackey, 0.0,
                    lambda: {"sample": k, "p": enc(p), "a": enc(a),
                             "commutes": commute, "mackey": mackey})

    def sharp_vi(t: _Tally) -> None:
        smp = draws("le:sharp.vi")
        for k in range(samples):
            p, a = smp.commuting(smp.projection, smp.effect)
            r = res(prod(p, a), ctx.meet(p, a))
            t.tally(r <= thr, r, lambda: {"sample": k, "p": enc(p),
                                          "a": enc(a)})
        oracle = draws("le:sharp.vi/oracle")
        for k in range(min(samples, 24)):
            pvals = (oracle.rng.integers(0, 2, n)).astype(float)
            if not pvals.any():
                pvals[0] = 1.0
            avals = oracle.rng.uniform(0.0, 1.0, n)
            worst = float(np.max(_meet_headroom(pvals, avals, ctx.tol.psd)))
            t.tally(worst <= 1e-6, worst,
                    lambda: {"oracle_sample": k, "p": pvals.tolist(),
                             "a": avals.round(12).tolist(), "slack": worst})

    def strongarch(t: _Tally) -> None:
        smp = draws("de:strongarch")
        bound = 2.0 / ARCHIMEDEAN_RESOLUTION
        for k in range(samples):
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

    for sid, body in (("S1", s1), ("S2", s2), ("S3", s3), ("S4", s4),
                      ("S5", s5), ("le:aff", aff), ("convex:C1", convex_c1),
                      ("convex:C2", convex_c2), ("convex:C3", convex_c3),
                      ("convex:C4", convex_c4), ("le:sharp.i", sharp_i),
                      ("le:sharp.ii", sharp_ii), ("le:sharp.iii", sharp_iii),
                      ("le:sharp.iv", sharp_iv), ("le:sharp.v", sharp_v),
                      ("le:sharp.vi", sharp_vi),
                      ("de:strongarch", strongarch)):
        _run_statement(report, sid, report.model, body)


def run_sea_suite(model: str = "matrix", dim_or_size: int = 4,
                  samples: int = 200, seed: int = 42,
                  tol: Tolerances = DEFAULT,
                  product: str = "standard") -> SuiteReport:
    """Sequential-product axioms, affinity, sharpness, archimedeanity."""
    report, ctx, draws = _suite(
        "sea", model, dim_or_size, samples, seed, tol, product != "standard",
        product=product, archimedean_resolution=ARCHIMEDEAN_RESOLUTION)
    _sea(report, ctx, draws, dim_or_size, samples, product)
    return report


# ---------------------------------------------------------------------------
# compression suite


def _compression(report: SuiteReport, ctx, draws, n: int, samples: int,
                 focus: str) -> None:
    enc, mul = ctx.encode, ctx.mul
    thr = ctx.tol.check

    def res(x, y=None) -> float:
        return _res(x if y is None else ctx.sub(x, y), n)

    def sandwich(x, a):
        return mul(mul(x, a), x)

    def compr(t: _Tally) -> None:
        smp = draws("de:compr")
        for k in range(samples):
            u = smp.frame()
            if focus == "projection":
                f = smp.projection(frame=u)
            else:
                f = smp.effect(lo=0.3, hi=0.7, frame=u)

            def jmap(x):
                return ctx.product(f, x)

            a, b = smp.summable_pair()
            r_add = res(ctx.sub(jmap(ctx.element(ctx.add(a, b))), jmap(a)),
                        jmap(b))
            below = ctx.element(jmap(f))
            r_retract = res(jmap(below), below)
            inker = (smp.commuting_with(f, on=0.0)
                     if focus == "projection"
                     else ctx.element(ctx.zero_like(f)))
            fperp = ctx.complement(ctx.raw(f))
            kernel_ok = (res(jmap(inker)) <= thr) == ctx.leq(inker, fperp)
            generic = smp.effect()
            van = res(jmap(generic)) <= thr
            under = ctx.leq(generic, fperp)
            r = max(r_add, r_retract)
            ok = r <= thr and kernel_ok and van == under
            t.tally(ok, r, lambda: {"sample": k, "focus": enc(f),
                                    "additivity": r_add,
                                    "retraction": r_retract,
                                    "kernel_clause": kernel_ok,
                                    "generic_clause": bool(van == under)})

    def cb_c1(t: _Tally) -> None:
        smp = draws("cb:C1")
        unit = ctx.unit(n)
        for k in range(samples):
            p = smp.projection()
            r = res(ctx.compress(p, unit), p)
            t.tally(r <= thr, r, lambda: {"sample": k, "p": enc(p)})

    def cb_c2p(t: _Tally) -> None:
        smp = draws("cb:C2p")
        for k in range(samples):
            p, q = smp.commuting(smp.projection, smp.projection)
            a = smp.effect()
            praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
            pq = mul(praw, qraw)
            r = res(sandwich(praw, sandwich(qraw, araw)),
                    mul(mul(pq, araw), pq.conj().T))
            idem = res(mul(pq, pq), pq)
            t.tally(r <= ctx.tol.comm and idem <= ctx.tol.proj, max(r, idem),
                    lambda: {"sample": k, "p": enc(p), "q": enc(q)})

    def cb_c3(t: _Tally) -> None:
        smp = draws("cb:C3")
        for k in range(samples):
            (p, q, rr), sizes = _three_orthogonal(smp, n)
            araw = ctx.raw(smp.effect())
            composed = sandwich(ctx.add(p, q),
                                sandwich(ctx.add(q, rr), araw))
            r = res(composed, sandwich(ctx.raw(q), araw))
            t.tally(r <= thr, r, lambda: {"sample": k, "sizes": sizes})

    def com_e(t: _Tally) -> None:
        smp = draws("le:comE")
        keys = ("compress_below", "block_sum", "interval_sum", "mackey",
                "meet")
        for k in range(samples):
            p, a = (smp.commuting(smp.projection, smp.effect) if k % 2 == 0
                    else (smp.projection(), smp.effect()))
            stmts = _five_way(ctx, p, a)
            agree = len({stmts[key] for key in keys}) == 1
            t.tally(agree, stmts["residual"],
                    lambda: {"sample": k, "p": enc(p), "a": enc(a),
                             "statements": {key: stmts[key] for key in keys}})

    def compat_i(t: _Tally) -> None:
        smp = draws("lemma:compatible_projs.i")
        for k in range(samples):
            if n < 2:
                t.tally(True)
                continue
            u = smp.frame()
            k1 = int(smp.rng.integers(1, n))
            k2 = int(smp.rng.integers(1, n - k1 + 1))
            p, q = smp.span(u, 0, k1), smp.span(u, k1, k1 + k2)
            a = smp.split_effect(u, k1)
            araw = ctx.raw(a)
            osum = ctx.add(p, q)
            r_join = res(ctx.join(p, q), osum)
            rhs = ctx.add(sandwich(ctx.raw(p), araw),
                          sandwich(ctx.raw(q), araw))
            r = max(r_join, res(sandwich(osum, araw), rhs))
            t.tally(r <= thr, r, lambda: {"sample": k, "p": enc(p),
                                          "q": enc(q), "a": enc(a)})

    def compat_ii(t: _Tally) -> None:
        smp = draws("lemma:compatible_projs.ii")
        for k in range(samples):
            p, q = smp.commuting(smp.projection, smp.projection)
            a = smp.effect()
            praw, qraw, araw = ctx.raw(p), ctx.raw(q), ctx.raw(a)
            meet = mul(praw, qraw)
            x = sandwich(praw, sandwich(qraw, araw))
            y = sandwich(qraw, sandwich(praw, araw))
            z = mul(mul(meet, araw), meet.conj().T)
            r = max(res(x, y), res(x, z), res(meet, ctx.meet(p, q)))
            t.tally(r <= thr, r,
                    lambda: {"sample": k, "p": enc(p), "q": enc(q)})

    for sid, body in (("de:compr", compr), ("cb:C1", cb_c1),
                      ("cb:C2p", cb_c2p), ("cb:C3", cb_c3),
                      ("le:comE", com_e),
                      ("lemma:compatible_projs.i", compat_i),
                      ("lemma:compatible_projs.ii", compat_ii)):
        _run_statement(report, sid, report.model, body)


def run_compression_suite(model: str = "matrix", dim_or_size: int = 4,
                          samples: int = 200, seed: int = 42,
                          tol: Tolerances = DEFAULT,
                          focus: str = "projection") -> SuiteReport:
    """Compression-base axioms and the compatibility equivalences."""
    if focus not in ("projection", "soft"):
        raise ValueError(f"unknown focus {focus!r}")
    report, ctx, draws = _suite(
        "compression", model, dim_or_size, samples, seed, tol,
        focus != "projection", focus=focus)
    _compression(report, ctx, draws, dim_or_size, samples, focus)
    return report


# ---------------------------------------------------------------------------
# spectrality suite


def _rickart_family(a, ctx) -> sp.SpectralFamily:
    """Reference family from the definition: p_λ is the Rickart projection
    of (a - λ)⁺, freshly decomposed at each spectral value λ."""
    values = tuple(float(x) for x in ctx.eigenprojections(a)[0])
    steps = [ctx.zero_proj(a)] + [
        ctx.rickart(ctx.positive_part(ctx.shift(a, lam))) for lam in values]
    return sp.SpectralFamily(values, tuple(steps), ctx.model)


def _spectrality(report: SuiteReport, ctx, draws, n: int, samples: int,
                 floor_mode: str, tol: Tolerances) -> None:
    mul, enc = ctx.mul, ctx.encode
    thr = ctx.tol.check
    degenerate_ties = 0

    def res(x, y=None) -> float:
        return _res(x if y is None else ctx.sub(x, y), n)

    def floor_map(a):
        return ctx.floor(a) if floor_mode == "floor" else ctx.cover(a)

    def decomp(t: _Tally) -> None:
        smp = draws("prop:decomp")
        for k in range(samples):
            v = smp.signed()
            dec = sp.orthogonal_decomposition(v, ctx)
            ok = True
            worst = 0.0
            for q in sp.sign_witness_projections(v, ctx, limit=8):
                comp = ctx.complement(q)
                vp = mul(mul(q, v), q)
                vm = -mul(mul(comp, v), comp)
                r = max(res(vp, dec.v_plus), res(vm, dec.v_minus))
                worst = max(worst, r)
                ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "v": enc(v)})

    def limit(t: _Tally) -> None:
        smp = draws("coro:limit")
        for k in range(samples):
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
                ok = ok and gap <= 2.0 ** -level + thr and lo >= -thr
                if prev is not None:
                    ok = ok and ctx.leq(prev, an)
                prev = an
            t.tally(ok, max(0.0, worst), lambda: {"sample": k, "a": enc(a)})

    def spectprojs(t: _Tally) -> None:
        smp = draws("eq:spectprojs")
        for k in range(samples):
            a = smp.simple()
            fam = sp.spectral_family(a, ctx)
            ref = _rickart_family(a, ctx)
            ok = len(fam.breakpoints) == len(ref.breakpoints) and all(
                abs(x - y) <= thr
                for x, y in zip(fam.breakpoints, ref.breakpoints))
            worst = 0.0
            for j in range(1, len(fam.projections)):
                ok = ok and ctx.leq(fam.projections[j - 1],
                                    fam.projections[j])
                eig = sp.eigenprojection(a, fam.breakpoints[j - 1], ctx)
                r = res(fam.jump(j), eig)
                worst = max(worst, r)
                ok = ok and r <= thr
            for step, ref_step in zip(fam.projections, ref.projections):
                r = res(step, ref_step)
                worst = max(worst, r)
                ok = ok and r <= thr
            bounds = sp.spectral_bounds(a, ctx)
            one = ctx.one_like(a)
            ok = (ok and ctx.leq(bounds.L * one, a)
                  and ctx.leq(a, bounds.U * one))
            ok = ok and ctx.proj_rank(fam.at(bounds.L - 0.25)) == 0
            ok = ok and ctx.proj_rank(fam.at(bounds.U)) == n
            for lo, hi in zip(fam.breakpoints, fam.breakpoints[1:]):
                mid = (lo + hi) / 2.0
                ok = ok and res(fam.at(mid), fam.at(mid + 1e-12)) <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": enc(a)})

    def spectres(t: _Tally) -> None:
        smp = draws("eq:spectresV")
        for k in range(samples):
            a = smp.effect()
            fam = sp.spectral_family(a, ctx)
            r0 = ctx.norm(ctx.sub(a, sp.reconstruct(fam)))
            ok = r0 <= thr
            worst = r0
            for mesh in MESHES:
                gap = ctx.norm(ctx.sub(a, sp.reconstruct(fam, mesh)))
                ok = ok and gap <= mesh + thr
                worst = max(worst, gap if gap > mesh else 0.0)
            t.tally(ok, worst, lambda: {"sample": k, "a": enc(a),
                                        "breakpoint_residual": r0})

    def projcov(t: _Tally) -> None:
        smp = draws("de:projcov")
        for k in range(samples):
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
            r = res(ctx.cover(ctx.scale(lam, a)), cover)
            t.tally(ok and r <= thr, r,
                    lambda: {"sample": k, "a": enc(a), "lambda": lam})

    def projcover_lemma(t: _Tally) -> None:
        smp = draws("lemma:projcover")
        for k in range(samples):
            a, b = (smp.orthogonal_pair() if k % 2 == 0
                    else (smp.effect(), smp.effect()))
            r1 = res(ctx.product(a, b))
            r2 = res(ctx.product(ctx.cover(a), b))
            t.tally((r1 <= thr) == (r2 <= thr), 0.0,
                    lambda: {"sample": k, "a": enc(a), "b": enc(b),
                             "effect_product": r1, "cover_product": r2})

    def covex_floor(t: _Tally) -> None:
        smp = draws("lemma:covex_floor")
        for k in range(samples):
            ones = int(smp.rng.integers(0, n)) if k % 2 == 0 else 0
            a = smp.with_top(ones) if ones else smp.effect(hi=0.95)
            top = ctx.zero_like(a)
            for lam, proj in zip(*ctx.eigenprojections(a)):
                if lam >= 1.0 - ctx.tol.cluster:
                    top = ctx.add(top, proj)
            r1 = res(floor_map(a), top)
            r2 = res(ctx.floor(ctx.complement(a)),
                     ctx.complement(ctx.raw(ctx.cover(a))))
            r = max(r1, r2)
            t.tally(r <= thr, r, lambda: {"sample": k, "a": enc(a),
                                          "cluster_route": r1, "duality": r2})

    def floor_lemma(t: _Tally) -> None:
        smp = draws("lemma:floor")
        for k in range(samples):
            a = smp.with_top(int(smp.rng.integers(1, n + 1)))
            flr = floor_map(a)
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
            bound = mu_max ** FLOOR_POWER + tol.check
            ok = ok and gap <= bound
            t.tally(ok, gap, lambda: {"sample": k, "a": enc(a),
                                      "rate_gap": gap, "rate_bound": bound})

    def b_compar(t: _Tally) -> None:
        nonlocal degenerate_ties
        smp = draws("de:b-compar")
        for k in range(samples):
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
                            lambda: {"sample": k, "e": enc(e),
                                     "f": enc(f), "note": "witness for a "
                                     "non-commuting pair"})
                    continue
            else:
                e, f = smp.commuting()
                wit = sp.comparability_witness(e, f, ctx)
            if wit.degenerate:
                degenerate_ties += 1
            p = wit.p
            comp = ctx.complement(ctx.raw(p))
            ok = (ctx.leq(ctx.compress(p, e), ctx.compress(p, f))
                  and ctx.leq(ctx.compress(comp, f), ctx.compress(comp, e)))
            t.tally(ok, 0.0, lambda: {"sample": k, "e": enc(e), "f": enc(f)})

    def commut(t: _Tally) -> None:
        smp = draws("prop:commut")
        for k in range(samples):
            a, b = (smp.commuting() if k % 2 == 0
                    else (smp.effect(), smp.effect()))
            sequential = ctx.residual(ctx.product(a, b),
                                      ctx.product(b, a)) <= ctx.tol.comm
            ordinary = ctx.commutes(a, b)
            projections = all(ctx.commutes(pa, b)
                              for pa in ctx.eigenprojections(a)[1])
            t.tally(sequential == ordinary == projections, 0.0,
                    lambda: {"sample": k, "a": enc(a), "b": enc(b),
                             "sequential": sequential, "ordinary": ordinary,
                             "projections": projections})

    def property_a(t: _Tally) -> None:
        smp = draws("propertyA")
        for k in range(samples):
            a, b = smp.commuting()
            chain = [sp.simple_approximation(a, level, ctx)
                     for level in range(1, 9)]
            chain.append(a)
            chain += [ctx.complement(ctx.raw(x))
                      for x in ctx.powers(ctx.complement(a), 8)]
            chain.append(ctx.cover(a))
            ok = all(ctx.commutes(x, b) for x in chain)
            t.tally(ok, 0.0, lambda: {"sample": k, "a": enc(a), "b": enc(b)})

    for sid, body in (("prop:decomp", decomp), ("coro:limit", limit),
                      ("eq:spectprojs", spectprojs),
                      ("eq:spectresV", spectres), ("de:projcov", projcov),
                      ("lemma:projcover", projcover_lemma),
                      ("lemma:covex_floor", covex_floor),
                      ("lemma:floor", floor_lemma),
                      ("de:b-compar", b_compar), ("prop:commut", commut),
                      ("propertyA", property_a)):
        _run_statement(report, sid, report.model, body)
    report.metadata["degenerate_comparability_ties"] = degenerate_ties


def run_spectrality_suite(model: str = "matrix", dim_or_size: int = 6,
                          samples: int = 100, seed: int = 7,
                          tol: Tolerances = DEFAULT,
                          floor_mode: str = "floor") -> SuiteReport:
    """Covers, floors, comparability, decompositions, reconstruction."""
    if floor_mode not in ("floor", "cover"):
        raise ValueError(f"unknown floor mode {floor_mode!r}")
    report, ctx, draws = _suite(
        "spectrality", model, dim_or_size, samples, seed, tol,
        floor_mode != "floor", floor_mode=floor_mode,
        floor_power=FLOOR_POWER, approx_levels=APPROX_LEVELS,
        meshes=list(MESHES))
    report.metadata["property_a_coverage"] = (
        "constructed chains only: dyadic approximations and complements of "
        "sequential powers")
    _spectrality(report, ctx, draws, dim_or_size, samples, floor_mode, tol)
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


def _merge_representation(rep: sp.ReducedRepresentation, delta: float,
                          raw_of) -> tuple[list[float], list[np.ndarray]]:
    """Merge each coefficient within delta of its block's first one into
    that block, which keeps the first coefficient."""
    coeffs: list[float] = []
    projs: list[np.ndarray] = []
    for mu, proj in zip(rep.coefficients, rep.projections):
        if coeffs and delta > 0.0 and mu - coeffs[-1] <= delta:
            projs[-1] = projs[-1] + raw_of(proj)
        else:
            coeffs.append(mu)
            projs.append(raw_of(proj))
    return coeffs, projs


def _context(report: SuiteReport, ctx, draws, n: int, samples: int,
             merge_delta: float) -> None:
    """The context statements; the definitional Rickart family is the
    reference."""
    thr = ctx.tol.check

    def closed_form(t: _Tally) -> None:
        smp = draws("thm:contexts")
        for k in range(samples):
            if k == 0 and merge_delta > 0.0:
                # Two levels 0.1 apart always merge, so the control fails
                # for every seed, not only when sampled levels happen to.
                a = smp.with_values(np.resize([0.4, 0.5], n))
            else:
                a = smp.simple(gap=0.15)
            rep = sp.reduced_representation(a, ctx)
            coeffs, projs = _merge_representation(rep, merge_delta, ctx.raw)
            closed = sp.family_from_representation(coeffs, projs, ctx.model)
            ref = _rickart_family(a, ctx)
            ok = len(closed.projections) == len(ref.projections)
            worst = 0.0
            if ok:
                for cp, fp in zip(closed.projections, ref.projections):
                    r = _res(ctx.sub(cp, fp), n)
                    worst = max(worst, r)
                    ok = ok and r <= thr
                ok = ok and all(
                    abs(x - y) <= thr
                    for x, y in zip(closed.breakpoints, ref.breakpoints))
            t.tally(ok, worst, lambda: {
                "sample": k, "a": ctx.encode(a),
                "closed_steps": len(closed.projections),
                "family_steps": len(ref.projections)})

    def functions(t: _Tally) -> None:
        smp = draws("thm:contexts.functions")
        for k in range(samples):
            a = smp.simple(gap=0.15)
            rep = sp.reduced_representation(a, ctx)
            nodes = list(rep.coefficients)
            if merge_delta > 0.0:
                nodes = [mu for j, mu in enumerate(nodes)
                         if j == 0 or mu - nodes[j - 1] > merge_delta]
            spread = min((y - x for x, y in zip(nodes, nodes[1:])),
                         default=1.0)
            assert spread > ctx.tol.cluster, \
                "reduced representation carries duplicate coefficients"
            ok = True
            worst = 0.0
            for i, proj in enumerate(rep.projections[:len(nodes)]):
                r = _res(ctx.sub(_lagrange(ctx, a, nodes, i), proj), n)
                worst = max(worst, r)
                ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a),
                                        "nodes": [float(x) for x in nodes]})

    def reduced(t: _Tally) -> None:
        smp = draws("thm:contexts.reduced")
        for k in range(samples):
            a = smp.simple(gap=0.15)
            rep = sp.reduced_representation(a, ctx)
            ref = _rickart_family(a, ctx)
            ok = all(y - x > ctx.tol.cluster for x, y in
                     zip(rep.coefficients, rep.coefficients[1:]))
            worst = 0.0
            for j in range(1, len(ref.breakpoints) + 1):
                r = _res(ctx.sub(ref.jump(j), rep.projections[j - 1]), n)
                worst = max(worst, r)
                ok = ok and r <= thr
                ok = ok and abs(ref.breakpoints[j - 1]
                                - rep.coefficients[j - 1]) <= thr
            for i, p in enumerate(rep.projections):
                for q in rep.projections[i + 1:]:
                    r = _res(ctx.mul(ctx.raw(p), ctx.raw(q)), n)
                    worst = max(worst, r)
                    ok = ok and r <= thr
            t.tally(ok, worst, lambda: {"sample": k, "a": ctx.encode(a)})

    _run_statement(report, "thm:contexts", report.model, closed_form)
    _run_statement(report, "thm:contexts.reduced", report.model, reduced)
    _run_statement(report, "thm:contexts.functions", report.model, functions)


def run_context_suite(model: str = "matrix", dim_or_size: int = 4,
                      samples: int = 200, seed: int = 42,
                      tol: Tolerances = DEFAULT,
                      merge_delta: float = 0.0) -> SuiteReport:
    """Reduced representations, closed-form families, functions of a."""
    report, ctx, draws = _suite(
        "context", model, dim_or_size, samples, seed, tol,
        merge_delta > 0.0, merge_delta=merge_delta)
    _context(report, ctx, draws, dim_or_size, samples, merge_delta)
    return report


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

    def oracle(t: _Tally) -> None:
        for name, alg in algs.items():
            n = alg.size
            for i, ok in enumerate(~alg.principal | alg.sharp):
                t.tally(bool(ok), 0.0, lambda: {
                    "table": name, "element": alg.label(i),
                    "clause": "principal implies sharp"})
            image = tb.fuzzy_embedding(name)
            if image is None:
                continue
            # Row i of v is element i's image; pair verdicts are [i, j].
            v = np.stack([e.values for e in image])
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

    def diamond_shape(t: _Tally) -> None:
        alg = algs["diamond"]
        t.tally(tb.incompatible_pairs(alg) == [(1, 2)], 0.0,
                lambda: {"clause": "incompatible pair a,b"})
        t.tally(tb.non_sharp_elements(alg) == [1, 2], 0.0,
                lambda: {"clause": "a and b are not sharp"})
        t.tally(tb.non_principal_elements(alg) == [1, 2], 0.0,
                lambda: {"clause": "a and b are not principal"})
        t.tally(alg.brute_inf([1, 2]) == 0
                and alg.brute_sup([1, 2]) == 3, 0.0,
                lambda: {"clause": "lattice bounds of a,b"})

    _run_statement(report, "tables:oracle", "table", oracle)
    _run_statement(report, "tables:diamond", "table", diamond_shape)
    return report


# ---------------------------------------------------------------------------
# all suites


def run_all(model: str = "matrix", dim_or_size: int = 4, samples: int = 200,
            seed: int = 42, tol: Tolerances = DEFAULT) -> list[SuiteReport]:
    """Every suite plus its negative control, in a stable order.

    At dimension (or size) 1 two controls cannot fail on a correct build,
    so they are left out and the suite they control records why: with one
    point there is no second spectral value for the context control to
    merge, and 1x1 matrices commute, so the Jordan product (ab + ba) / 2
    is the sequential product there.
    """
    control_samples = max(1, samples // 4)
    broken_product = "jordan" if model == "matrix" else "lukasiewicz"
    sea = run_sea_suite(model, dim_or_size, samples, seed, tol)
    context = run_context_suite(model, dim_or_size, samples, seed, tol)
    reports = [
        sea,
        run_compression_suite(model, dim_or_size, samples, seed, tol),
        run_spectrality_suite(model, dim_or_size, samples, seed, tol),
        context,
        run_table_suite(seed=seed, tol=tol),
    ]
    if dim_or_size == 1 and model == "matrix":
        sea.metadata["control_omitted"] = (
            "product=jordan: 1x1 matrices commute, so the Jordan product "
            "is the sequential product")
    else:
        reports.append(run_sea_suite(model, dim_or_size, control_samples,
                                     seed, tol, product=broken_product))
    reports += [
        run_compression_suite(model, dim_or_size, control_samples, seed,
                              tol, focus="soft"),
        run_spectrality_suite(model, dim_or_size, control_samples, seed,
                              tol, floor_mode="cover"),
    ]
    if dim_or_size == 1:
        context.metadata["control_omitted"] = (
            "merge_delta=0.25: one point has a single spectral value, so "
            "there is nothing to merge")
    else:
        reports.append(run_context_suite(model, dim_or_size, control_samples,
                                         seed, tol, merge_delta=0.25))
    reports.append(run_table_suite(seed=seed, tol=tol, corrupted=True))
    return reports
